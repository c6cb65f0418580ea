package wire_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accelcloud/internal/rpc"
	"accelcloud/internal/tasks"
	"accelcloud/internal/wire"
)

// serve starts srv on a loopback listener and returns its address and
// a channel closed once Serve has returned.
func serve(t *testing.T, srv *wire.Server) (string, <-chan struct{}) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(lis)
	}()
	return lis.Addr().String(), done
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitGoroutines polls until the process is back at (or under) base
// goroutines.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines did not return to baseline %d (now %d):\n%s",
				base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerFloodStaysInsideWorkerBound floods one connection with four
// times the worker bound of concurrent frames against a handler that
// blocks until released. The server may run at most MaxConnWorkers of
// them; every other frame must be answered at once with a 503 the rpc
// layer classifies as queue-full, every stream must get exactly one
// reply, and the released calls must all answer.
func TestServerFloodStaysInsideWorkerBound(t *testing.T) {
	const frames = 4 * wire.MaxConnWorkers
	base := runtime.NumGoroutine()

	release := make(chan struct{})
	var entered atomic.Int32
	srv := &wire.Server{H: wire.Handlers{
		Offload: func(ctx context.Context, req wire.OffloadRequest) (wire.OffloadResponse, int) {
			entered.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return wire.OffloadResponse{Result: tasks.Result{Task: req.State.Task}}, http.StatusOK
		},
	}}
	addr, served := serve(t, srv)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu      sync.Mutex
		replies []wire.Frame
	)
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(replies)
	}
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		br := bufio.NewReader(nc)
		for {
			f, err := wire.ReadFrame(br, 0)
			if err != nil {
				return
			}
			mu.Lock()
			replies = append(replies, f)
			mu.Unlock()
		}
	}()

	var out []byte
	for id := uint64(1); id <= frames; id++ {
		payload := wire.AppendOffloadRequest(nil, wire.OffloadRequest{
			State: tasks.State{Task: fmt.Sprintf("t-%d", id)},
		})
		out = wire.AppendFrame(out, wire.Frame{Type: wire.FrameRequest, Flags: wire.MethodOffload, StreamID: id, Payload: payload})
	}
	if _, err := nc.Write(out); err != nil {
		t.Fatal(err)
	}

	// Every frame beyond the bound is rejected without waiting for a
	// worker, so all rejections arrive while the handlers still block.
	waitFor(t, "the workers to fill and the rest to be rejected", func() bool {
		return entered.Load() == wire.MaxConnWorkers && count() == frames-wire.MaxConnWorkers
	})
	// Server side: accept loop, connection read loop and the workers;
	// test side: this goroutine's reader.
	if extra := runtime.NumGoroutine() - base; extra > wire.MaxConnWorkers+8 {
		t.Fatalf("%d goroutines above baseline under a flood, bound is %d + 8", extra, wire.MaxConnWorkers)
	}

	close(release)
	waitFor(t, "the released calls to answer", func() bool { return count() == frames })
	_ = nc.Close()
	<-readDone
	_ = srv.Close()
	<-served

	seen := make(map[uint64]bool, frames)
	var ok, rejected int
	for _, f := range replies {
		if seen[f.StreamID] {
			t.Fatalf("stream %d answered twice", f.StreamID)
		}
		seen[f.StreamID] = true
		switch f.Type {
		case wire.FrameResponse:
			resp, err := wire.DecodeOffloadResponse(f.Payload)
			if err != nil {
				t.Fatalf("stream %d: %v", f.StreamID, err)
			}
			if want := fmt.Sprintf("t-%d", f.StreamID); resp.Result.Task != want {
				t.Fatalf("stream %d answered with %q, want %q", f.StreamID, resp.Result.Task, want)
			}
			ok++
		case wire.FrameError:
			e, err := wire.DecodeErrorFrame(f.Payload)
			if err != nil {
				t.Fatalf("stream %d: %v", f.StreamID, err)
			}
			se := fmt.Errorf("offload: %w", &rpc.StatusError{Code: e.Code, Body: e.Message})
			if e.Code != http.StatusServiceUnavailable || !rpc.IsQueueFull(se) {
				t.Fatalf("stream %d rejected with %d %q, want a queue-full 503", f.StreamID, e.Code, e.Message)
			}
			rejected++
		default:
			t.Fatalf("stream %d answered by frame type %d", f.StreamID, f.Type)
		}
	}
	if len(seen) != frames || ok != wire.MaxConnWorkers || rejected != frames-wire.MaxConnWorkers {
		t.Fatalf("%d streams answered (%d ok, %d rejected), want %d (%d ok)",
			len(seen), ok, rejected, frames, wire.MaxConnWorkers)
	}
	waitGoroutines(t, base)
}

// TestBatchBeyondWorkerBudgetKeepsCallOrder sends a batch frame longer
// than the whole worker budget. Calls that find no free worker run on
// the dispatching worker, so no more than MaxConnWorkers calls ever run
// at once, and the results come back in call order.
func TestBatchBeyondWorkerBudgetKeepsCallOrder(t *testing.T) {
	const calls = 2*wire.MaxConnWorkers + 3
	var inflight, peak atomic.Int32
	srv := &wire.Server{H: wire.Handlers{
		Offload: func(ctx context.Context, req wire.OffloadRequest) (wire.OffloadResponse, int) {
			n := inflight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			inflight.Add(-1)
			return wire.OffloadResponse{Result: tasks.Result{Task: req.State.Task}, Group: req.Group}, http.StatusOK
		},
	}}
	addr, served := serve(t, srv)
	client := wire.NewClient(addr)
	defer func() {
		_ = client.Close()
		_ = srv.Close()
		<-served
	}()

	batch := wire.BatchRequest{Calls: make([]wire.OffloadRequest, calls)}
	for i := range batch.Calls {
		batch.Calls[i] = wire.OffloadRequest{Group: i, State: tasks.State{Task: fmt.Sprintf("c%d", i)}}
	}
	f, err := client.Call(context.Background(), wire.FrameBatch, 0, wire.AppendBatchRequest(nil, batch))
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameBatch {
		t.Fatalf("batch answered by frame type %d", f.Type)
	}
	resp, err := wire.DecodeBatchResponse(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != calls {
		t.Fatalf("%d results for %d calls", len(resp.Results), calls)
	}
	for i, r := range resp.Results {
		want := fmt.Sprintf("c%d", i)
		if r.Code != http.StatusOK || r.Resp.Result.Task != want || r.Resp.Group != i {
			t.Fatalf("result %d = %d %q group %d, want 200 %q group %d",
				i, r.Code, r.Resp.Result.Task, r.Resp.Group, want, i)
		}
	}
	if p := peak.Load(); p > wire.MaxConnWorkers {
		t.Fatalf("%d calls ran at once, bound is %d", p, wire.MaxConnWorkers)
	}
}

// TestAbandonedCallReplyNeverReachesLaterCall pins the reply-channel
// reuse rule: a call abandoned by its context must never hand its late
// reply to a later call on the same connection.
func TestAbandonedCallReplyNeverReachesLaterCall(t *testing.T) {
	t.Run("late reply", func(t *testing.T) {
		cli, peer := net.Pipe()
		conn := wire.NewConn(cli, 0)
		defer conn.Close()
		br := bufio.NewReader(peer)
		reply := func(stream uint64, body string) {
			if _, err := peer.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.FrameResponse, StreamID: stream, Payload: []byte(body)})); err != nil {
				t.Fatal(err)
			}
		}
		type result struct {
			f   wire.Frame
			err error
		}
		for i := 0; i < 50; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			abandoned := make(chan error, 1)
			go func() {
				_, err := conn.Call(ctx, wire.FrameRequest, wire.MethodOffload, []byte("abandoned"))
				abandoned <- err
			}()
			fa, err := wire.ReadFrame(br, 0)
			if err != nil {
				t.Fatal(err)
			}
			cancel()
			if err := <-abandoned; !errors.Is(err, context.Canceled) {
				t.Fatalf("abandoned call returned %v", err)
			}
			// The later call is waiting before the late reply arrives.
			later := make(chan result, 1)
			go func() {
				f, err := conn.Call(context.Background(), wire.FrameRequest, wire.MethodOffload, []byte("later"))
				later <- result{f, err}
			}()
			fb, err := wire.ReadFrame(br, 0)
			if err != nil {
				t.Fatal(err)
			}
			reply(fa.StreamID, fmt.Sprintf("late-%d", i))
			reply(fb.StreamID, fmt.Sprintf("later-%d", i))
			r := <-later
			if r.err != nil {
				t.Fatal(r.err)
			}
			if want := fmt.Sprintf("later-%d", i); r.f.StreamID != fb.StreamID || string(r.f.Payload) != want {
				t.Fatalf("round %d: later call got stream %d %q, want stream %d %q",
					i, r.f.StreamID, r.f.Payload, fb.StreamID, want)
			}
		}
	})

	// Cancellation racing the reply: the read loop may already hold the
	// abandoned call's channel when the caller gives up.
	t.Run("racing cancel", func(t *testing.T) {
		srv := &wire.Server{H: wire.Handlers{
			Offload: func(ctx context.Context, req wire.OffloadRequest) (wire.OffloadResponse, int) {
				return wire.OffloadResponse{Result: tasks.Result{Task: req.State.Task}}, http.StatusOK
			},
		}}
		addr, served := serve(t, srv)
		client := wire.NewClient(addr)
		call := func(ctx context.Context, task string) (string, error) {
			f, err := client.Call(ctx, wire.FrameRequest, wire.MethodOffload,
				wire.AppendOffloadRequest(nil, wire.OffloadRequest{State: tasks.State{Task: task}}))
			if err != nil {
				return "", err
			}
			resp, err := wire.DecodeOffloadResponse(f.Payload)
			return resp.Result.Task, err
		}
		for i := 0; i < 2000; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			go cancel()
			_, _ = call(ctx, fmt.Sprintf("abandoned-%d", i))
			want := fmt.Sprintf("later-%d", i)
			got, err := call(context.Background(), want)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round %d: later call answered with %q", i, got)
			}
		}
		_ = client.Close()
		_ = srv.Close()
		<-served
	})
}
