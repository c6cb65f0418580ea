package rpc

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"accelcloud/internal/wire"
)

// The binary transport: the same Client surface (Offload, Execute,
// OffloadBatch, Health) over length-prefixed frames on one persistent
// multiplexed TCP connection instead of one HTTP request per call. It
// plugs in underneath post(), so the whole resilience ladder —
// Timeout, RetryPolicy, HedgePolicy, the counters — composes with it
// unchanged.

// method describes one typed client call: its HTTP path and, for the
// calls the binary transport carries, the request frame it travels in
// and how its reply is decoded. Requests and responses stay typed from
// the public method down to the codec, so no call boxes them.
type method[Req, Resp any] struct {
	path string
	// ftype and flags select the request frame; reply is the frame
	// type a successful answer arrives in.
	ftype, flags, reply byte
	// encode is nil for calls the binary transport does not carry.
	encode func(dst []byte, req Req) []byte
	decode func(payload []byte) (Resp, error)
}

var (
	offloadMethod = &method[OffloadRequest, OffloadResponse]{
		path: PathOffload, ftype: wire.FrameRequest, flags: wire.MethodOffload, reply: wire.FrameResponse,
		encode: wire.AppendOffloadRequest, decode: wire.DecodeOffloadResponse,
	}
	executeMethod = &method[ExecuteRequest, ExecuteResponse]{
		path: PathExecute, ftype: wire.FrameRequest, flags: wire.MethodExecute, reply: wire.FrameResponse,
		encode: wire.AppendExecuteRequest, decode: wire.DecodeExecuteResponse,
	}
	offloadBatchMethod = &method[BatchRequest, BatchResponse]{
		path: PathOffloadBatch, ftype: wire.FrameBatch, reply: wire.FrameBatch,
		encode: wire.AppendBatchRequest, decode: wire.DecodeBatchResponse,
	}
	// Over bin://, ExecuteBatch fans out as single execute frames, so
	// its batch form is JSON only.
	executeBatchMethod = &method[ExecuteBatchRequest, ExecuteBatchResponse]{path: PathExecuteBatch}
)

// wireClient lazily builds the framed-protocol client for a bin://
// BaseURL. The wire.Client redials transparently, so one rpc.Client
// keeps exactly one persistent connection per peer for its lifetime.
func (c *Client) wireClient() (*wire.Client, error) {
	c.binOnce.Do(func() {
		addr := strings.TrimPrefix(c.BaseURL, BinaryScheme)
		addr = strings.TrimSuffix(addr, "/")
		if addr == "" || strings.Contains(addr, "/") {
			c.binErr = fmt.Errorf("rpc: malformed binary address %q (want %shost:port)", c.BaseURL, BinaryScheme)
			return
		}
		c.bin = wire.NewClient(addr)
	})
	return c.bin, c.binErr
}

// frameBufs recycles request encode buffers. A buffer is free again
// once wire.Conn.Call returns: the frame has been copied onto the
// connection by then.
var frameBufs = sync.Pool{New: func() any { return new([]byte) }}

// binPost mirrors postJSON over the framed transport: encode the
// request payload into a pooled buffer, send one frame, decode the
// answering frame. FrameError responses become *StatusError with the
// same HTTP-equivalent code the JSON compat mode would have produced,
// so the retry budget and the callers classify failures identically on
// both transports. The decoded response aliases the reply frame, which
// no one else holds.
func binPost[Req, Resp any](ctx context.Context, c *Client, m *method[Req, Resp], in Req) (Resp, error) {
	var zero Resp
	bc, err := c.wireClient()
	if err != nil {
		return zero, err
	}
	if m.encode == nil {
		return zero, fmt.Errorf("rpc: no binary encoding for %T (path %s)", in, m.path)
	}
	bp := frameBufs.Get().(*[]byte)
	*bp = m.encode((*bp)[:0], in)
	f, err := bc.Call(ctx, m.ftype, m.flags, *bp)
	if cap(*bp) <= maxPooledBufBytes {
		frameBufs.Put(bp)
	}
	if err != nil {
		return zero, fmt.Errorf("rpc: %s: %w", m.path, err)
	}
	switch f.Type {
	case wire.FrameError:
		e, derr := wire.DecodeErrorFrame(f.Payload)
		if derr != nil {
			return zero, fmt.Errorf("rpc: %s: undecodable error frame: %w", m.path, derr)
		}
		return zero, fmt.Errorf("rpc: %s: %w", m.path, &StatusError{Code: e.Code, Body: e.Message})
	case m.reply:
		v, derr := m.decode(f.Payload)
		if derr != nil {
			return zero, fmt.Errorf("rpc: decode response: %w", derr)
		}
		return v, nil
	default:
		return zero, fmt.Errorf("rpc: %s: unexpected frame type %d", m.path, f.Type)
	}
}
