package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"accelcloud/internal/loadgen"
	"accelcloud/internal/rpc"
)

// Outcome of one planned offload.
const (
	notSent = iota
	sentOK
	sentFailed  // transport or remote error, including time-outs
	sentRefused // admission-queue backpressure (rpc.IsQueueFull)
	sentWrong   // answered, but not with the expected result
)

// recorder keeps one slot per planned item, preallocated before the
// run, so recording an outcome never allocates.
type recorder struct {
	status []uint8
	// latMs is the latency a user sees: from send in a closed loop,
	// from the due time in an open loop.
	latMs []float64
	// lagMs is how late each request was sent: after its due time
	// (open loop) or after the caller's previous reply (closed loop).
	lagMs []float64
	// queueMs and lingerMs are the serving layer's waits from the
	// front-end's per-hop span (traced runs only).
	queueMs, lingerMs []float64
	tr                *tracer
}

func newRecorder(n int, tr *tracer) *recorder {
	r := &recorder{
		status: make([]uint8, n),
		latMs:  make([]float64, n),
		lagMs:  make([]float64, n),
		tr:     tr,
	}
	if tr != nil {
		r.queueMs = make([]float64, n)
		r.lingerMs = make([]float64, n)
	}
	return r
}

func (r *recorder) request(i int, it *item) rpc.OffloadRequest {
	req := rpc.OffloadRequest{UserID: it.user, Group: group, BatteryLevel: 1, State: it.state}
	if r.tr != nil {
		// A SpanID makes the front-end return its per-hop span, which
		// carries the admission-queue and linger waits.
		req.SpanID = uint64(i) + 1
	}
	return req
}

// finish records item i, sent at send, due at due, and answered at
// done; from is the instant its latency counts from.
func (r *recorder) finish(i int, it *item, resp rpc.OffloadResponse, err error, due, send, done, from time.Time) {
	switch {
	case rpc.IsQueueFull(err):
		r.status[i] = sentRefused
	case err != nil:
		r.status[i] = sentFailed
	case !it.check(resp.Result):
		r.status[i] = sentWrong
	default:
		r.status[i] = sentOK
	}
	r.latMs[i] = ms(done.Sub(from))
	r.lagMs[i] = ms(send.Sub(due))
	if r.tr != nil {
		r.tr.record(layerRPC, uint64(i)+1, send, done)
		if sp := resp.Span; sp != nil {
			r.queueMs[i], r.lingerMs[i] = sp.QueueMs, sp.LingerMs
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runClosed drives items through callers closed-loop callers — each
// sends its next request when its previous one is answered — until d
// has passed or the plan is used up. Every request taken is answered
// before it returns; it reports how many were sent and the window
// they took.
func runClosed(ctx context.Context, client loadgen.Offloader, items []item, callers int, d time.Duration, rec *recorder) (sent int, window time.Duration) {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := start
			for due.Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				send := time.Now()
				resp, err := client.Offload(ctx, rec.request(i, &items[i]))
				done := time.Now()
				rec.finish(i, &items[i], resp, err, due, send, done, send)
				due = done
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), len(items)), time.Since(start)
}

// runOpen sends every item at its due offset from the start, whatever
// the replies, through at most inFlight concurrent senders. When all
// senders are busy the dispatcher waits, and the request is sent late;
// its latency still counts from when it was due, so a stall shows in
// every request it delays.
func runOpen(ctx context.Context, client loadgen.Offloader, items []item, inFlight int, rec *recorder) (sent int, window time.Duration) {
	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < inFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				due := start.Add(items[i].due)
				send := time.Now()
				resp, err := client.Offload(ctx, rec.request(i, &items[i]))
				rec.finish(i, &items[i], resp, err, due, send, time.Now(), due)
			}
		}()
	}
	for i := range items {
		if wait := time.Until(start.Add(items[i].due)); wait > 0 {
			time.Sleep(wait)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return len(items), time.Since(start)
}
