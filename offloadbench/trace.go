package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"accelcloud/internal/rpc"
	"accelcloud/internal/tasks"
	"accelcloud/internal/wire"
)

// The traced chain of one offload, outermost first. Each layer's span
// is timed by a wrapper around that layer's public entry point; none of
// the wrappers exists in an untraced run.
const (
	layerRPC    = iota // rpc.Client.Offload, timed by the driver
	layerSDN           // the front-end's wire Offload handler or JSON Handler
	layerDalvik        // the surrogate's wire Execute handler or JSON Handler
	layerTask          // tasks.Task.Execute, pushed with Surrogate.Push
	nLayers
)

var layerNames = [nLayers]string{"rpc", "sdn", "dalvik", "tasks"}

// span is one layer entry, in nanoseconds since the tracer's epoch. id
// is the request's SpanID where the layer sees it, else 0.
type span struct {
	id         uint64
	start, end int64
}

// spanBuf is one layer's preallocated span store; recording never
// allocates, and spans beyond its capacity are counted but dropped.
type spanBuf struct {
	n     atomic.Int64
	spans []span
}

// tracer holds a traced run's spans and transport counters. Spans are
// kept only while on is set, so warm-up traffic leaves none.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	bufs  [nLayers]spanBuf
	// fe counts the client ↔ front-end hop, be the front-end ↔
	// surrogate hop, both at the listener side.
	fe, be ioCount
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := range t.bufs {
		t.bufs[i].spans = make([]span, capacity)
	}
	return t
}

func (t *tracer) record(layer int, id uint64, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	b := &t.bufs[layer]
	if i := b.n.Add(1) - 1; i < int64(len(b.spans)) {
		b.spans[i] = span{id: id, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))}
	}
}

// kept returns the recorded spans of a layer and how many were dropped
// for lack of room.
func (t *tracer) kept(layer int) (spans []span, dropped int64) {
	b := &t.bufs[layer]
	n := b.n.Load()
	if n > int64(len(b.spans)) {
		return b.spans, n - int64(len(b.spans))
	}
	return b.spans[:n], 0
}

// durationsUs returns a layer's span durations in microseconds.
func (t *tracer) durationsUs(layer int) []float64 {
	spans, _ := t.kept(layer)
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.end-s.start) / 1e3
	}
	return out
}

// writeSpans writes every kept span as tab-separated text, once, after
// the run.
func (t *tracer) writeSpans(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\tid\tstart_ns\tend_ns")
	for l := range t.bufs {
		spans, _ := t.kept(l)
		for _, s := range spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", layerNames[l], s.id, s.start, s.end)
		}
	}
	return w.Flush()
}

// tracedTask times tasks.Task.Execute.
type tracedTask struct {
	tasks.Task
	tr *tracer
}

func (t tracedTask) Execute(st tasks.State) (tasks.Result, error) {
	start := time.Now()
	res, err := t.Task.Execute(st)
	t.tr.record(layerTask, 0, start, time.Now())
	return res, err
}

// traceOffload times a front-end's wire Offload handler.
func (t *tracer) traceOffload(h func(context.Context, wire.OffloadRequest) (wire.OffloadResponse, int)) func(context.Context, wire.OffloadRequest) (wire.OffloadResponse, int) {
	return func(ctx context.Context, req wire.OffloadRequest) (wire.OffloadResponse, int) {
		start := time.Now()
		resp, code := h(ctx, req)
		t.record(layerSDN, req.SpanID, start, time.Now())
		return resp, code
	}
}

// traceExecute times a surrogate's wire Execute handler.
func (t *tracer) traceExecute(h func(context.Context, wire.ExecuteRequest) wire.ExecuteResponse) func(context.Context, wire.ExecuteRequest) wire.ExecuteResponse {
	return func(ctx context.Context, req wire.ExecuteRequest) wire.ExecuteResponse {
		start := time.Now()
		resp := h(ctx, req)
		t.record(layerDalvik, 0, start, time.Now())
		return resp
	}
}

// traceHTTP times the offload and execute requests of a JSON handler
// as spans of layer; execute requests also count as request frames of
// the surrogate hop.
func (t *tracer) traceHTTP(layer int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case rpc.PathOffload, rpc.PathExecute, rpc.PathExecuteBatch:
		default:
			h.ServeHTTP(w, r)
			return
		}
		if layer == layerDalvik {
			t.be.frames.Add(1)
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(layer, 0, start, time.Now())
	})
}

// ioCount counts what a listener's connections move: bytes and
// Read/Write calls (each at least one syscall), plus, on the surrogate
// hop, the request frames that reach the surrogate.
type ioCount struct {
	bytes, calls, frames atomic.Int64
}

type ioSnapshot struct{ bytes, calls, frames int64 }

func (c *ioCount) snapshot() ioSnapshot {
	return ioSnapshot{c.bytes.Load(), c.calls.Load(), c.frames.Load()}
}

func (s ioSnapshot) sub(o ioSnapshot) ioSnapshot {
	return ioSnapshot{s.bytes - o.bytes, s.calls - o.calls, s.frames - o.frames}
}

// countingListener wraps accepted connections in countingConns. With
// frames set it also decodes the inbound byte stream with
// wire.DecodeFrame and counts request frames.
type countingListener struct {
	net.Listener
	c      *ioCount
	frames bool
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, c: l.c, frames: l.frames}, nil
}

type countingConn struct {
	net.Conn
	c       *ioCount
	frames  bool
	pending []byte // inbound bytes not yet forming a whole frame
}

func (cc *countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.calls.Add(1)
	cc.c.bytes.Add(int64(n))
	if cc.frames && n > 0 {
		cc.countFrames(p[:n])
	}
	return n, err
}

func (cc *countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.calls.Add(1)
	cc.c.bytes.Add(int64(n))
	return n, err
}

// countFrames counts the request frames completed by b. Only the
// server's read loop reads a connection, so pending needs no lock.
func (cc *countingConn) countFrames(b []byte) {
	cc.pending = append(cc.pending, b...)
	off := 0
	for {
		f, n, err := wire.DecodeFrame(cc.pending[off:], 0)
		if errors.Is(err, wire.ErrShortFrame) {
			break
		}
		if err != nil {
			// The server drops a connection that sends a bad frame.
			off = len(cc.pending)
			break
		}
		if f.Type == wire.FrameRequest || f.Type == wire.FrameBatch {
			cc.c.frames.Add(1)
		}
		off += n
	}
	cc.pending = append(cc.pending[:0], cc.pending[off:]...)
}
