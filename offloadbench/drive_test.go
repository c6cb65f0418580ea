package main

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"accelcloud/internal/rpc"
	"accelcloud/internal/sim"
	"accelcloud/internal/tasks"
	"accelcloud/internal/wire"
)

// localOffloader executes requests in-process; the call numbered stall
// (counting from 0) first sleeps for pause.
type localOffloader struct {
	pool  *tasks.Pool
	stall int
	pause time.Duration
	calls int
}

func (o *localOffloader) Offload(_ context.Context, req rpc.OffloadRequest) (rpc.OffloadResponse, error) {
	if o.calls == o.stall {
		time.Sleep(o.pause)
	}
	o.calls++
	res, err := o.pool.Execute(req.State)
	return rpc.OffloadResponse{Result: res}, err
}

// openLoop runs 1000 tiny requests due every 200µs through one sender
// (so the fake offloader needs no lock) and returns the recorder.
func openLoop(t *testing.T, off *localOffloader) *recorder {
	t.Helper()
	items := drawClosed(workloads["tiny-bin"], rand.New(rand.NewSource(1)), 1000, 1)
	if err := fillStates(tinyPool, sim.NewRNG(1), items); err != nil {
		t.Fatal(err)
	}
	for i := range items {
		items[i].due = time.Duration(i) * 200 * time.Microsecond
	}
	rec := newRecorder(len(items), nil)
	sent, _ := runOpen(context.Background(), off, items, 1, rec)
	if sent != len(items) {
		t.Fatalf("sent %d of %d", sent, len(items))
	}
	for i, st := range rec.status {
		if st != sentOK {
			t.Fatalf("request %d: outcome %d", i, st)
		}
	}
	return rec
}

func lagP99(t *testing.T, rec *recorder) float64 {
	t.Helper()
	lag := append([]float64(nil), rec.lagMs...)
	sort.Float64s(lag)
	v, _, ok := percentile(lag, 0.99)
	if !ok {
		t.Fatal("too few samples for the lag p99")
	}
	return v
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const pause = 60 * time.Millisecond
	calm := openLoop(t, &localOffloader{pool: tinyPool, stall: -1})
	stalled := openLoop(t, &localOffloader{pool: tinyPool, stall: 100, pause: pause})

	// The stalled call itself and the ones queued behind it were sent
	// late; counted from when they were due, their latencies carry the
	// wait even though the offloader answered them at once.
	if got := stalled.latMs[101]; got < ms(pause)*3/4 {
		t.Errorf("request after the stall: latency %.2f ms, want about %.0f ms", got, ms(pause))
	}
	if got := stalled.lagMs[101]; got < ms(pause)*3/4 {
		t.Errorf("request after the stall: lag %.2f ms, want about %.0f ms", got, ms(pause))
	}
	if calmP99, stalledP99 := lagP99(t, calm), lagP99(t, stalled); stalledP99 < ms(pause)/2 || stalledP99 < 4*calmP99 {
		t.Errorf("lag p99: %.2f ms stalled vs %.2f ms calm; the stall does not show", stalledP99, calmP99)
	}
}

func TestClosedLoopTimesFromSend(t *testing.T) {
	items := drawClosed(workloads["tiny-bin"], rand.New(rand.NewSource(1)), 50, 1)
	if err := fillStates(tinyPool, sim.NewRNG(1), items); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(len(items), nil)
	off := &localOffloader{pool: tinyPool, stall: 10, pause: 30 * time.Millisecond}
	sent, _ := runClosed(context.Background(), off, items, 1, time.Hour, rec)
	if sent != len(items) {
		t.Fatalf("sent %d of %d", sent, len(items))
	}
	if rec.latMs[10] < 25 {
		t.Errorf("stalled call latency %.2f ms, want >= 25", rec.latMs[10])
	}
	// The next call is sent when the stalled one returns: it was not
	// late, so its latency and lag stay small.
	if rec.latMs[11] > 20 || rec.lagMs[11] > 20 {
		t.Errorf("call after the stall: latency %.2f ms, lag %.2f ms", rec.latMs[11], rec.lagMs[11])
	}
}

func TestCountFramesAcrossReads(t *testing.T) {
	var stream []byte
	for i := 0; i < 3; i++ {
		payload := wire.AppendExecuteRequest(nil, wire.ExecuteRequest{State: tasks.State{Task: "quicksort", Size: 8}})
		stream = wire.AppendFrame(stream, wire.Frame{Type: wire.FrameRequest, Flags: wire.MethodExecute, StreamID: uint64(i + 1), Payload: payload})
	}
	var c ioCount
	cc := &countingConn{c: &c, frames: true}
	// Feed the stream in uneven pieces, splitting frames mid-way.
	for off := 0; off < len(stream); {
		n := min(7, len(stream)-off)
		cc.countFrames(stream[off : off+n])
		off += n
	}
	if got := c.frames.Load(); got != 3 {
		t.Errorf("counted %d frames, want 3", got)
	}
	if len(cc.pending) != 0 {
		t.Errorf("%d bytes left pending", len(cc.pending))
	}
}
