package wire

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
)

// Handlers are the application callbacks a Server dispatches to.
type Handlers struct {
	// Offload serves one offload call, returning the response and its
	// HTTP-equivalent status code (200 on success) — the same pair the
	// JSON compat handler produces, so both protocols classify
	// failures identically. Batch frames fan out through this handler
	// one call at a time, which is what keeps pick policies, in-flight
	// counters, health observation, and chaos injection seeing
	// individual calls.
	Offload func(ctx context.Context, req OffloadRequest) (OffloadResponse, int)
	// Execute serves one direct surrogate execution (errors travel in
	// the response's Error field, mirroring the HTTP surrogate).
	Execute func(ctx context.Context, req ExecuteRequest) ExecuteResponse
}

// MaxConnWorkers bounds the goroutines serving one connection's
// frames (dalvik.DefaultMaxProcs, so one connection can keep a default
// surrogate fully busy). Workers start lazily, park between frames, and
// exit when the connection ends.
const MaxConnWorkers = 256

// maxScratch caps the encode buffer a worker or connection writer keeps
// between frames, so one large response does not stay pinned for the
// connection's lifetime.
const maxScratch = 64 << 10

// msgWorkersBusy is the body of the 503 error frame answering a frame
// that finds every worker busy. It embeds MsgQueueFull, so clients
// treat it as backpressure (fast re-route retry), not as a crash.
const msgWorkersBusy = "wire: connection workers busy: " + MsgQueueFull

// Server accepts binary protocol connections and dispatches frames.
// Each connection serves its frames on at most MaxConnWorkers workers,
// so slow calls never block other streams on the same connection and
// no connection can fan out without bound. A frame that arrives while
// every worker is busy is answered at once with a 503 error frame
// carrying MsgQueueFull, and the connection stays open. The calls of a
// batch frame draw on the same workers, running on the dispatching
// worker when none is free. Ping frames are answered by the read loop.
// Responses are written under a per-connection mutex.
//
// Buffers: decoded request fields (State.Data and the like) alias the
// frame body the read loop allocated for that frame, so a handler may
// keep them. Each worker encodes its responses into its own reused
// scratch buffer.
type Server struct {
	// H holds the application callbacks; a nil callback rejects the
	// corresponding method with a 501 error frame.
	H Handlers
	// MaxFrame caps inbound frames (0 selects DefaultMaxFrame).
	MaxFrame int

	mu     sync.Mutex
	lis    []net.Listener
	conns  map[net.Conn]context.CancelFunc
	closed bool
}

// Serve accepts connections until the listener fails or Close is
// called (which returns nil).
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = lis.Close()
		return ErrClosed
	}
	s.lis = append(s.lis, lis)
	if s.conns == nil {
		s.conns = make(map[net.Conn]context.CancelFunc)
	}
	s.mu.Unlock()
	for {
		nc, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			cancel()
			_ = nc.Close()
			return nil
		}
		s.conns[nc] = cancel
		s.mu.Unlock()
		go s.serveConn(ctx, nc)
	}
}

// Close stops the listeners and tears down live connections;
// in-flight handlers see their contexts cancelled.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	s.lis = nil
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for _, l := range lis {
		_ = l.Close()
	}
	for nc, cancel := range conns {
		cancel()
		_ = nc.Close()
	}
	return nil
}

// connWriter serializes response frames onto one connection.
type connWriter struct {
	mu   sync.Mutex
	nc   net.Conn
	wbuf []byte
}

func (w *connWriter) write(f Frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	w.wbuf, err = WriteFrame(w.nc, w.wbuf, f)
	if cap(w.wbuf) > maxScratch {
		w.wbuf = nil
	}
	return err
}

// writeError sends a FrameError, encoding its payload into buf, and
// returns buf for reuse. Write errors are ignored: the read loop will
// observe the broken connection and tear it down.
func (w *connWriter) writeError(buf []byte, stream uint64, code int, msg string) []byte {
	buf = AppendErrorFrame(buf[:0], ErrorFrame{Code: code, Message: msg})
	_ = w.write(Frame{Type: FrameError, StreamID: stream, Payload: buf})
	return buf
}

// conn is one served connection: its writer and its worker set.
type conn struct {
	h    *Handlers
	ctx  context.Context
	w    connWriter
	jobs chan job // unbuffered: a send succeeds only to a parked worker
	// started counts workers ever started; workers run until ctx ends,
	// so it never exceeds MaxConnWorkers.
	started atomic.Int32
	wg      sync.WaitGroup
}

// job is one unit of work for a worker: an inbound frame, or call i of
// a batch being dispatched by another worker.
type job struct {
	f     Frame
	batch *batchRun
	i     int
}

// batchRun is one batch frame's calls and their ordered results.
type batchRun struct {
	calls   []OffloadRequest
	results []BatchResult
	wg      sync.WaitGroup
}

// serve runs call i and records its result.
func (b *batchRun) serve(ctx context.Context, h *Handlers, i int) {
	defer b.wg.Done()
	resp, code := h.Offload(ctx, b.calls[i])
	if code == 0 {
		code = http.StatusOK
	}
	b.results[i] = BatchResult{Code: code, Resp: resp}
}

// handOff gives j to a parked worker, or to a newly started one while
// the connection is under MaxConnWorkers. It reports false when every
// worker is busy.
func (c *conn) handOff(j job) bool {
	select {
	case c.jobs <- j:
		return true
	default:
	}
	for {
		n := c.started.Load()
		if n >= MaxConnWorkers {
			return false
		}
		if c.started.CompareAndSwap(n, n+1) {
			break
		}
	}
	c.wg.Add(1)
	go c.worker(j)
	return true
}

// worker runs jobs until the connection's context ends, encoding
// responses into a scratch buffer it keeps across jobs.
func (c *conn) worker(j job) {
	defer c.wg.Done()
	var scratch []byte
	for {
		scratch = c.run(j, scratch)
		if cap(scratch) > maxScratch {
			scratch = nil
		}
		select {
		case j = <-c.jobs:
		case <-c.ctx.Done():
			return
		}
	}
}

func (s *Server) serveConn(ctx context.Context, nc net.Conn) {
	c := &conn{h: &s.H, ctx: ctx, w: connWriter{nc: nc}, jobs: make(chan job)}
	defer func() {
		s.mu.Lock()
		if cancel, ok := s.conns[nc]; ok {
			cancel()
			delete(s.conns, nc)
		}
		s.mu.Unlock()
		_ = nc.Close()
		// The context is cancelled (here or by Close), so parked
		// workers exit and busy ones finish their current call.
		c.wg.Wait()
	}()
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	var scratch []byte
	for {
		f, err := ReadFrame(br, s.MaxFrame)
		if err != nil {
			// An undecodable or oversized frame leaves the stream
			// position unknowable; report on stream 0 and drop the
			// connection. A clean EOF or cancelled context just ends.
			if ctx.Err() == nil && err != io.EOF &&
				(errors.Is(err, ErrBadFrame) || errors.Is(err, ErrFrameTooLarge)) {
				c.w.writeError(scratch, 0, http.StatusBadRequest, err.Error())
			}
			return
		}
		if f.Type == FrameRequest && f.Flags&methodMask == MethodPing {
			// Liveness is the connection's, not the workers': a ping
			// is answered even when every worker is busy.
			_ = c.w.write(Frame{Type: FrameResponse, StreamID: f.StreamID})
			continue
		}
		if !c.handOff(job{f: f}) {
			scratch = c.w.writeError(scratch, f.StreamID, http.StatusServiceUnavailable, msgWorkersBusy)
		}
	}
}

// run serves one job, encoding any response into buf, and returns buf
// for reuse. Write errors are ignored: the read loop will observe the
// broken connection and tear it down.
func (c *conn) run(j job, buf []byte) []byte {
	if j.batch != nil {
		j.batch.serve(c.ctx, c.h, j.i)
		return buf
	}
	f := j.f
	switch f.Type {
	case FrameRequest:
		switch f.Flags & methodMask {
		case MethodOffload:
			if c.h.Offload == nil {
				return c.w.writeError(buf, f.StreamID, http.StatusNotImplemented, "wire: offload not served here")
			}
			req, err := DecodeOffloadRequest(f.Payload)
			if err != nil {
				return c.w.writeError(buf, f.StreamID, http.StatusBadRequest, err.Error())
			}
			resp, code := c.h.Offload(c.ctx, req)
			if code != 0 && code != http.StatusOK {
				return c.w.writeError(buf, f.StreamID, code, resp.Error)
			}
			buf = AppendOffloadResponse(buf[:0], resp)
			_ = c.w.write(Frame{Type: FrameResponse, StreamID: f.StreamID, Payload: buf})
		case MethodExecute:
			if c.h.Execute == nil {
				return c.w.writeError(buf, f.StreamID, http.StatusNotImplemented, "wire: execute not served here")
			}
			req, err := DecodeExecuteRequest(f.Payload)
			if err != nil {
				return c.w.writeError(buf, f.StreamID, http.StatusBadRequest, err.Error())
			}
			resp := c.h.Execute(c.ctx, req)
			buf = AppendExecuteResponse(buf[:0], resp)
			_ = c.w.write(Frame{Type: FrameResponse, StreamID: f.StreamID, Payload: buf})
		}
	case FrameBatch:
		if f.Flags&FlagBatchResponse != 0 {
			return c.w.writeError(buf, f.StreamID, http.StatusBadRequest, "wire: batch response frame sent to server")
		}
		if c.h.Offload == nil {
			return c.w.writeError(buf, f.StreamID, http.StatusNotImplemented, "wire: offload not served here")
		}
		batch, err := DecodeBatchRequest(f.Payload)
		if err != nil {
			return c.w.writeError(buf, f.StreamID, http.StatusBadRequest, err.Error())
		}
		// Fan the chain out per call: every call takes its own trip
		// through the router, so the data plane's accounting is
		// identical whether calls arrive alone or chained. Calls go to
		// free workers; one that finds none, and the last one, run
		// here, so a batch stays inside the worker bound and never
		// waits on a worker that cannot start.
		b := &batchRun{calls: batch.Calls, results: make([]BatchResult, len(batch.Calls))}
		last := len(b.calls) - 1
		for i := range b.calls {
			b.wg.Add(1)
			if i == last || !c.handOff(job{batch: b, i: i}) {
				b.serve(c.ctx, c.h, i)
			}
		}
		b.wg.Wait()
		buf = AppendBatchResponse(buf[:0], BatchResponse{Results: b.results})
		_ = c.w.write(Frame{Type: FrameBatch, Flags: FlagBatchResponse, StreamID: f.StreamID, Payload: buf})
	default:
		// FrameResponse / FrameError have no meaning inbound on a
		// server; answer with a protocol error on the same stream.
		return c.w.writeError(buf, f.StreamID, http.StatusBadRequest, "wire: unexpected frame type from client")
	}
	return buf
}
