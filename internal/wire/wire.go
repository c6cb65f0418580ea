// Package wire implements the binary framed RPC protocol of the
// offload path: length-prefixed frames over persistent multiplexed TCP
// connections, replacing one JSON-over-HTTP round trip per call with
// pipelined per-stream frames and batched call chains (DESIGN.md §8).
//
// # Frame layout
//
//	uvarint(frameLen) | version(1B) | type(1B) | flags(1B) | uvarint(streamID) | payload
//
// frameLen counts everything after the length prefix (header bytes and
// payload). The header is varint-framed: fixed one-byte version, type,
// and flags followed by a uvarint stream id, so small stream ids cost
// one byte and the header never needs padding. Within a connection the
// client allocates stream ids; a response frame carries the id of the
// request it answers, which is what lets one connection interleave any
// number of in-flight calls without head-of-line blocking on slow ones.
//
// # Frame kinds
//
//	FrameRequest  — one call; flags bits 0-1 select the method
//	                (offload, execute, ping)
//	FrameResponse — the reply to a FrameRequest (empty for ping)
//	FrameBatch    — a chain of offload calls in one frame; flag bit 0
//	                distinguishes the request (0) from the response (1)
//	                direction
//	FrameError    — a protocol- or routing-level failure, carrying an
//	                HTTP-equivalent status code so the JSON compat mode
//	                and the binary mode classify errors identically
//
// # Serving and buffer ownership
//
// A Server serves each connection's frames on at most MaxConnWorkers
// workers, started on demand and kept until the connection ends. A frame
// that finds every worker busy is answered at once with a 503 FrameError
// whose message carries MsgQueueFull, so the client takes its
// backpressure path (re-route retry, spillover); the connection stays
// open. A batch frame's calls draw on the same workers and run on the
// dispatching worker when none is free, so neither single frames nor
// batches fan out past the bound.
//
// Buffers follow two rules. A Call payload is copied onto the
// connection before Call returns, so the caller may reuse it at once.
// Decoded messages do not copy: their byte fields (State.Data,
// Result.Data) alias the frame body, which ReadFrame allocates for each
// frame and no one else reuses.
//
// The decoder is strict: unknown versions, types, or flag bits are
// rejected, declared lengths are capped before any allocation happens,
// and payloads are sub-sliced rather than copied, so adversarial input
// can neither panic the decoder nor make it over-allocate — properties
// the conformance suite locks in with golden vectors and go-fuzz
// corpora (wire/testdata).
package wire

import "errors"

// Version1 is the only protocol version this codec speaks. Unknown
// versions are rejected at decode time.
const Version1 = 1

// Frame types.
const (
	// FrameRequest carries one encoded call (method selected by flags).
	FrameRequest = 1
	// FrameResponse answers a FrameRequest on the same stream id.
	FrameResponse = 2
	// FrameBatch carries a chain of offload calls (or their responses)
	// executed server-side in one round trip.
	FrameBatch = 3
	// FrameError reports a failure with an HTTP-equivalent status code.
	FrameError = 4
)

// Request-frame flags: bits 0-1 select the method.
const (
	// MethodOffload routes an OffloadRequest through the front-end.
	MethodOffload = 0
	// MethodExecute runs an ExecuteRequest directly on a surrogate.
	MethodExecute = 1
	// MethodPing is the liveness probe (empty payload, empty response).
	MethodPing = 2

	// methodMask extracts the method bits from request-frame flags.
	methodMask = 0x03
)

// FlagBatchResponse marks a FrameBatch that carries responses rather
// than calls (server→client direction).
const FlagBatchResponse = 0x01

// DefaultMaxFrame bounds a frame's declared length: the HTTP compat
// mode's 8 MiB body limit, doubled so a full batch of maximum-size
// calls still fits in one frame.
const DefaultMaxFrame = 16 << 20

// MaxBatchCalls bounds the calls in one batch frame; longer chains must
// be split, keeping a single frame's fan-out (and the memory one
// malicious frame can pin) bounded.
const MaxBatchCalls = 1024

// MsgQueueFull marks backpressure in an error body. A Server answers a
// frame that finds every connection worker busy with a 503 error frame
// carrying it, and the serving layer's admission queues embed it in
// their rejections; rpc.IsQueueFull recognizes it client-side, so the
// retry budget re-routes at once instead of backing off as if the peer
// had crashed.
const MsgQueueFull = "admission queue full"

// Decode errors. ErrFrameTooLarge and ErrShortFrame are distinct so a
// stream reader can tell "wait for more bytes" from "protocol
// violation".
var (
	// ErrShortFrame means the buffer ends before the declared frame does.
	ErrShortFrame = errors.New("wire: short frame")
	// ErrFrameTooLarge means the declared length exceeds the decoder's cap.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size cap")
	// ErrBadFrame means a malformed header or payload: unknown version,
	// type, or flag bits, or a payload that does not parse.
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrClosed is returned by calls on a closed or broken connection.
	ErrClosed = errors.New("wire: connection closed")
)
