package wire

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"accelcloud/internal/tasks"
)

// FuzzDecodeFrame is the decoder-robustness half of the conformance
// contract: for arbitrary bytes the decoder must never panic and never
// allocate past its cap, and anything it does accept must re-encode to
// a frame it decodes identically (decode∘encode = id on the accepted
// set). The seed corpus under testdata/fuzz/FuzzDecodeFrame holds one
// valid encoding per frame kind plus known-tricky headers; run with
// `go test -fuzz=FuzzDecodeFrame ./internal/wire/` to explore further.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range goldenFrames() {
		f.Add(AppendFrame(nil, fr))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x05, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b, 1<<20)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		// Accepted frames must survive a re-encode byte-identically up
		// to re-decode (the encoder always emits minimal varints, so
		// byte equality is only guaranteed after one normalization).
		re := AppendFrame(nil, fr)
		fr2, n2, err := DecodeFrame(re, 1<<20)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if n2 != len(re) || !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("decode∘encode not identity:\n got %+v\nwant %+v", fr2, fr)
		}
		// The payload decoders must be panic-free on whatever payload a
		// valid header smuggles in.
		switch fr.Type {
		case FrameRequest:
			switch fr.Flags & methodMask {
			case MethodOffload:
				_, _ = DecodeOffloadRequest(fr.Payload)
			case MethodExecute:
				_, _ = DecodeExecuteRequest(fr.Payload)
			}
		case FrameResponse:
			_, _ = DecodeOffloadResponse(fr.Payload)
			_, _ = DecodeExecuteResponse(fr.Payload)
		case FrameBatch:
			if fr.Flags&FlagBatchResponse != 0 {
				_, _ = DecodeBatchResponse(fr.Payload)
			} else {
				_, _ = DecodeBatchRequest(fr.Payload)
			}
		case FrameError:
			_, _ = DecodeErrorFrame(fr.Payload)
		}
	})
}

// FuzzRoundTrip drives the structured half: any OffloadRequest the
// client could build must survive encode → frame → decode bit-exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add(7, 2, 0.75, "k-1", "sieve", 1000, []byte{1, 2, 3}, uint64(1))
	f.Add(0, 0, 0.0, "", "", 0, []byte(nil), uint64(0))
	f.Add(-5, -9, math.Inf(1), "idem", "x", -40, []byte("data"), uint64(1)<<63)
	f.Add(math.MaxInt, math.MinInt, math.NaN(), "\x00\xff", "üñî", math.MaxInt32, bytes.Repeat([]byte{0xab}, 300), uint64(42))
	f.Fuzz(func(t *testing.T, userID, group int, battery float64, idemKey, task string, size int, data []byte, streamID uint64) {
		req := OffloadRequest{
			UserID: userID, Group: group, BatteryLevel: battery, IdemKey: idemKey,
			State: tasks.State{Task: task, Size: size, Data: data},
		}
		frame := AppendFrame(nil, Frame{
			Type: FrameRequest, Flags: MethodOffload, StreamID: streamID,
			Payload: AppendOffloadRequest(nil, req),
		})
		fr, n, err := DecodeFrame(frame, 0)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("consumed %d of %d bytes", n, len(frame))
		}
		if fr.StreamID != streamID || fr.Type != FrameRequest || fr.Flags != MethodOffload {
			t.Fatalf("header mangled: %+v", fr)
		}
		got, err := DecodeOffloadRequest(fr.Payload)
		if err != nil {
			t.Fatalf("own payload rejected: %v", err)
		}
		if got.UserID != userID || got.Group != group || got.IdemKey != idemKey ||
			got.State.Task != task || got.State.Size != size {
			t.Fatalf("round trip mismatch:\n got %+v\nsent %+v", got, req)
		}
		// Bit-level float equality: NaN payloads must survive too.
		if math.Float64bits(got.BatteryLevel) != math.Float64bits(battery) {
			t.Fatalf("battery bits changed: %x -> %x", math.Float64bits(battery), math.Float64bits(got.BatteryLevel))
		}
		// nil and empty are canonically nil after a round trip.
		if len(data) == 0 {
			if got.State.Data != nil {
				t.Fatalf("empty data decoded non-nil: %#v", got.State.Data)
			}
		} else if !bytes.Equal(got.State.Data, data) {
			t.Fatalf("data changed: %x -> %x", data, got.State.Data)
		}
	})
}

// pipeListener hands connections made with net.Pipe to Server.Serve.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// FuzzServeConn feeds arbitrary byte streams — valid frames, batch
// frames, garbage, truncations — into a Server over net.Pipe, closing
// the pipe after a fuzzed prefix. The server must never panic, and once
// the connection and the server are closed every goroutine it started
// (read loop, workers, batch calls) must have exited.
func FuzzServeConn(f *testing.F) {
	names := make([]string, 0, len(goldenFrames()))
	for name := range goldenFrames() {
		names = append(names, name)
	}
	sort.Strings(names)
	var all []byte
	for _, name := range names {
		all = AppendFrame(all, goldenFrames()[name])
	}
	calls := make([]OffloadRequest, 5)
	for i := range calls {
		calls[i] = canonicalOffloadRequest()
	}
	batch := AppendFrame(nil, Frame{Type: FrameBatch, StreamID: 7,
		Payload: AppendBatchRequest(nil, BatchRequest{Calls: calls})})
	batches := append(append(append([]byte(nil), batch...), batch...), all...)
	f.Add(all, uint(len(all)))
	f.Add(all, uint(len(all)/2))
	f.Add(batches, uint(len(batches)))
	f.Add(batches, uint(len(batch)+3))
	f.Add([]byte{0x05, 0xff, 0xff, 0xff, 0xff, 0xff}, uint(6))
	f.Add([]byte{0xff, 0xff, 0x03}, uint(3))
	f.Fuzz(func(t *testing.T, stream []byte, cut uint) {
		base := runtime.NumGoroutine()
		srv := &Server{MaxFrame: 1 << 16, H: Handlers{
			Offload: func(ctx context.Context, req OffloadRequest) (OffloadResponse, int) {
				return OffloadResponse{Result: tasks.Result{Task: req.State.Task, Data: req.State.Data}}, http.StatusOK
			},
			Execute: func(ctx context.Context, req ExecuteRequest) ExecuteResponse {
				return ExecuteResponse{Result: tasks.Result{Task: req.State.Task}}
			},
		}}
		lis := newPipeListener()
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = srv.Serve(lis)
		}()
		client, server := net.Pipe()
		lis.conns <- server
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			_, _ = io.Copy(io.Discard, client)
		}()
		// The server may hang up early on a bad frame; the write then
		// fails, which is fine.
		_, _ = client.Write(stream[:cut%uint(len(stream)+1)])
		_ = client.Close()
		<-drained
		_ = srv.Close()
		<-served
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutines did not return to baseline %d (now %d):\n%s",
					base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	})
}
