package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// Conn is the client side of one multiplexed connection: any number of
// goroutines call concurrently, each call travels on its own stream
// id, and a background read loop routes response frames back to their
// callers — so one persistent TCP connection pipelines a whole
// device's offload traffic without head-of-line blocking between
// calls.
type Conn struct {
	nc net.Conn
	br *bufio.Reader

	// wmu serializes frame writes; wbuf is the reused encode scratch.
	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf []byte

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan Frame
	err     error // terminal error, set once under mu
	closed  bool

	maxFrame int
}

// NewConn wraps an established connection and starts its read loop.
// max caps inbound frame sizes (0 selects DefaultMaxFrame). TCP
// connections get NoDelay set: frames are full messages, so Nagle
// coalescing only adds latency.
func NewConn(nc net.Conn, max int) *Conn {
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	if max <= 0 {
		max = DefaultMaxFrame
	}
	c := &Conn{
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 64<<10),
		bw:       bufio.NewWriterSize(nc, 64<<10),
		pending:  make(map[uint64]chan Frame),
		maxFrame: max,
	}
	go c.readLoop()
	return c
}

// readLoop routes inbound frames to their waiting streams. Any read
// error is terminal: the connection is failed as a whole and every
// pending call gets the error, which the rpc retry layer treats as
// retryable (a fresh dial may reach a healthy peer).
func (c *Conn) readLoop() {
	for {
		f, err := ReadFrame(c.br, c.maxFrame)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[f.StreamID]
		if ok {
			delete(c.pending, f.StreamID)
		}
		c.mu.Unlock()
		if ok {
			// Buffered: an abandoned caller (context cancelled between
			// our delete and its own) never blocks the read loop.
			ch <- f
		}
	}
}

// fail marks the connection dead and wakes every pending call.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan Frame)
	c.mu.Unlock()
	_ = c.nc.Close()
	for _, ch := range pending {
		close(ch)
	}
}

// Close tears the connection down; pending calls fail with ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	alreadyClosed := c.closed
	c.closed = true
	c.mu.Unlock()
	if alreadyClosed {
		return nil
	}
	c.fail(ErrClosed)
	return nil
}

// Broken reports whether the connection has hit a terminal error.
func (c *Conn) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}

// writeFrame serializes one frame onto the wire (single buffered write
// plus flush, under the write mutex).
func (c *Conn) writeFrame(f Frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = AppendFrame(c.wbuf[:0], f)
	if _, err := c.bw.Write(c.wbuf); err != nil {
		return err
	}
	return c.bw.Flush()
}

// replyChans recycles the one-slot channels calls wait on. A channel
// goes back only after its call received the reply frame: by then the
// read loop has removed it from pending and sent its one value, so
// nothing else can touch it. Channels of abandoned calls (the read loop
// may still send) and of failed connections (closed) are dropped.
var replyChans = sync.Pool{New: func() any { return make(chan Frame, 1) }}

// Call sends one frame and waits for the frame answering its stream
// id. The frame's StreamID is assigned here; Type, Flags, and Payload
// come from the caller. The payload is copied onto the wire before
// Call returns, so the caller may reuse it afterwards; the returned
// frame's payload is a fresh buffer the caller owns. On context
// cancellation the stream is abandoned (a late response is dropped by
// the read loop) and the context error returned.
func (c *Conn) Call(ctx context.Context, ftype, flags byte, payload []byte) (Frame, error) {
	id := c.nextID.Add(1)
	ch := replyChans.Get().(chan Frame)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Frame{}, err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.writeFrame(Frame{Type: ftype, Flags: flags, StreamID: id, Payload: payload}); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// A write error poisons the buffered writer state for every
		// stream; fail the connection so callers redial.
		c.fail(fmt.Errorf("%w: write: %v", ErrClosed, err))
		return Frame{}, fmt.Errorf("wire: write frame: %w", err)
	}
	select {
	case f, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			return Frame{}, err
		}
		replyChans.Put(ch)
		return f, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return Frame{}, ctx.Err()
	}
}
