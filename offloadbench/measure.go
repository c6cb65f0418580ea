package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"accelcloud/internal/dalvik"
	"accelcloud/internal/wire"
)

// setupBoots is how many times an untraced run boots and warms the
// cluster; setup_s is the median, and the last boot is measured.
const setupBoots = 9

// warmCallers is how many closed-loop callers warm a cluster up: a
// closed loop's own, and for the open loop enough that its batches end
// on a change of task rather than on the linger timer. Set-up is then
// paced by the CPU on every workload, and scaled like a closed loop
// (see scale).
func (sp spec) warmCallers() int {
	if sp.callers > 0 {
		return sp.callers
	}
	return 16
}

// round is one measured round's outcome.
type round struct {
	sent            int
	window, cpu     time.Duration
	mallocs, allocB uint64
	counts          [sentWrong + 1]int
	// p50Ms is the median latency of the round's verified offloads,
	// and within how many of them met the latency limit.
	p50Ms  float64
	within int
	// probe is the host-speed probe's reading around the round; the
	// scales are the factors its mean, median and CPU time give (see
	// scale), for rates, latencies and CPU time.
	probe                         probeReading
	rateScale, latScale, cpuScale float64
	// steal is the share of the machine's CPU time its hypervisor took
	// while the round ran.
	steal float64
}

func (r *round) completed() int { return r.counts[sentOK] }

func (r *round) cpuPerOp() float64 {
	return float64(r.cpu) / float64(time.Microsecond) / float64(r.completed())
}

// phase is a series of rounds measured on one cluster.
type phase struct {
	rounds   []*round
	schedule *digest
	results  resultDigest
	// Counters over the whole phase.
	sur              dalvik.Stats
	dropped, retries int64
	fe, be           ioSnapshot
	// latMs holds every verified offload's latency, each round's run
	// sorted; its room is made before the first round, so keeping the
	// samples does not grow the heap while the rounds run.
	latMs []float64
	// Traced phases keep every request's lag and serving-layer waits.
	lagMs, queueMs, lingerMs []float64
}

func (p *phase) sum(f func(r *round) int) int {
	n := 0
	for _, r := range p.rounds {
		n += f(r)
	}
	return n
}

func (p *phase) sent() int      { return p.sum(func(r *round) int { return r.sent }) }
func (p *phase) completed() int { return p.sum(func(r *round) int { return r.completed() }) }
func (p *phase) failed() int    { return p.sent() - p.completed() }
func (p *phase) count(st int) int {
	return p.sum(func(r *round) int { return r.counts[st] })
}

// latencies returns every verified offload's latency, ascending.
func (p *phase) latencies() []float64 {
	sort.Float64s(p.latMs)
	return p.latMs
}

// calm returns the rounds during which the hypervisor took no more of
// the CPU than in the run's median round. Stolen time stalls the whole
// process, and an open loop's latencies, which count from the due
// time, take every stall: under 15% steal a round's median latency
// rose by a quarter. The end-to-end metrics are medians over the calm
// rounds, at least half of them; with no steal, all rounds are calm.
func (p *phase) calm() []*round {
	steals := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		steals[i] = r.steal
	}
	sort.Float64s(steals)
	cut := median(steals)
	var calm []*round
	for _, r := range p.rounds {
		if r.steal <= cut {
			calm = append(calm, r)
		}
	}
	return calm
}

// median of f over the calm rounds.
func (p *phase) median(f func(r *round) float64) float64 {
	var vs []float64
	for _, r := range p.calm() {
		vs = append(vs, f(r))
	}
	sort.Float64s(vs)
	return median(vs)
}

// runEndToEnd is a -trace 0 run: set up setupBoots times, then measure
// the last cluster untraced.
func runEndToEnd(stdout io.Writer, sp spec, seed int64, d time.Duration) (*result, error) {
	wp, err := drawPlan(sp, seed, "warmup", warmupRequests)
	if err != nil {
		return nil, fmt.Errorf("warm-up plan: %w", err)
	}
	pr, err := newProbe()
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	defer pr.close()
	raw := make([]float64, setupBoots)
	setups := make([]float64, setupBoots)
	var c *cluster
	for b := range setups {
		before, err := pr.run()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if c, err = bootWarm(sp, wp, nil); err != nil {
			return nil, err
		}
		raw[b] = time.Since(start).Seconds()
		after, err := pr.run()
		if err != nil {
			c.close()
			return nil, err
		}
		setups[b] = raw[b] * scale(mid(before, after).mean)
		if b < setupBoots-1 {
			c.close()
			// Collect the closed cluster now, so that the peak
			// resident memory does not depend on when a GC happens.
			runtime.GC()
		}
	}
	p, err := measurePhase(c, sp, seed, d, nil, pr)
	c.close()
	if err != nil {
		return nil, err
	}
	sort.Float64s(raw)
	sort.Float64s(setups)
	fmt.Fprintf(stdout, "setup boots=%d seconds=%v scaled=%v\n", setupBoots, raw, setups)
	report(stdout, sp, p)
	all := p.latencies()
	p99, beyond, ok := percentile(all, 0.99)
	if !ok {
		return nil, fmt.Errorf("only %d verified samples, %d beyond p99: too few to report it", len(all), beyond)
	}
	fmt.Fprintf(stdout, "latency samples=%d p99_ms=%v beyond_p99=%d\n", len(all), p99, beyond)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	throughput := func(r *round) float64 { return float64(r.completed()) / r.window.Seconds() }
	p50 := func(r *round) float64 { return r.p50Ms }
	return &result{
		correct:   p.failed() == 0,
		attempted: p.sent(),
		failed:    p.failed(),
		metrics: []metric{
			{"setup_s", "s", median(setups)},
			{"throughput_rps", "1/s", p.median(func(r *round) float64 { return throughput(r) / r.rateScale })},
			{"latency_p50_ms", "ms", p.median(func(r *round) float64 { return p50(r) * r.latScale })},
			{"within_limit_frac", "frac", p.median(func(r *round) float64 {
				return float64(r.within) / float64(r.sent)
			})},
			{"cpu_us_per_op", "us", p.median(scaledCPU)},
			{"allocs_per_op", "count", p.median(func(r *round) float64 {
				return float64(r.mallocs) / float64(r.completed())
			})},
			{"alloc_bytes_per_op", "B", p.median(func(r *round) float64 {
				return float64(r.allocB) / float64(r.completed())
			})},
			{"max_rss_mb", "MB", float64(ru.Maxrss) / 1024},
		},
		ungated: []metric{
			// The tail percentile tracks how long the host preempts the
			// process, which varies from run to run far beyond any
			// useful bound on a shared machine; within_limit_frac
			// gates the tail.
			{"latency_p99_ms", "ms", p99},
			{"failed_frac", "frac", float64(p.failed()) / float64(p.sent())},
			// The same figures before scaling to the reference host.
			{"raw.setup_s", "s", median(raw)},
			{"raw.throughput_rps", "1/s", p.median(throughput)},
			{"raw.latency_p50_ms", "ms", p.median(p50)},
			{"raw.cpu_us_per_op", "us", p.median((*round).cpuPerOp)},
		},
	}, nil
}

// runTraced is a -trace 1 run: the first half of the window on an
// untraced cluster, the second half, with the same inputs, on a
// cluster booted with every wrapper installed.
func runTraced(stdout io.Writer, sp spec, seed int64, d time.Duration, spansPath string) (*result, error) {
	d /= 2
	wp, err := drawPlan(sp, seed, "warmup", warmupRequests)
	if err != nil {
		return nil, fmt.Errorf("warm-up plan: %w", err)
	}
	pr, err := newProbe()
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	defer pr.close()
	c, err := bootWarm(sp, wp, nil)
	if err != nil {
		return nil, err
	}
	plain, err := measurePhase(c, sp, seed, d, nil, pr)
	c.close()
	if err != nil {
		return nil, err
	}
	n, each := roundsOf(sp, d)
	tr := newTracer(n * roundCapacity(sp, each))
	if c, err = bootWarm(sp, wp, tr); err != nil {
		return nil, err
	}
	p, err := measurePhase(c, sp, seed, d, tr, pr)
	c.close()
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, "untraced half:")
	report(stdout, sp, plain)
	fmt.Fprintln(stdout, "traced half:")
	report(stdout, sp, p)
	if spansPath != "" {
		if err := tr.writeSpans(spansPath); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	sample, err := drawPlan(sp, seed, "isolated", isolatedSample)
	if err != nil {
		return nil, fmt.Errorf("isolated plan: %w", err)
	}
	iso, err := measureIsolated(sp, sample)
	if err != nil {
		return nil, err
	}
	metrics, err := perLayer(stdout, sp, p, plain, tr, iso)
	if err != nil {
		return nil, err
	}
	return &result{
		correct:   plain.failed() == 0 && p.failed() == 0,
		attempted: plain.sent() + p.sent(),
		failed:    plain.failed() + p.failed(),
		metrics:   metrics,
	}, nil
}

// bootWarm boots the cluster and sends it the warm-up requests, every
// one of which must come back verified.
func bootWarm(sp spec, warm []item, tr *tracer) (*cluster, error) {
	c, err := boot(sp, tr)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	rec := newRecorder(len(warm), nil)
	sent, _ := runClosed(context.Background(), c.client, warm, sp.warmCallers(), time.Hour, rec)
	for i := 0; i < sent; i++ {
		if rec.status[i] != sentOK {
			c.close()
			return nil, fmt.Errorf("warm-up request %d failed (outcome %d)", i, rec.status[i])
		}
	}
	return c, nil
}

// measurePhase plans and runs the rounds of a window of length d on c.
// Each round's inputs are made just before it, outside its timing.
func measurePhase(c *cluster, sp spec, seed int64, d time.Duration, tr *tracer, pr *probe) (*phase, error) {
	n, each := roundsOf(sp, d)
	runtime.GC()
	p := &phase{schedule: newDigest(), latMs: make([]float64, n*roundCapacity(sp, each))}
	// Write the whole buffer once: whether make zeroes it, making it
	// resident, depends on whether its memory is fresh from the
	// system, and that flipped the peak resident memory between runs.
	clear(p.latMs)
	p.latMs = p.latMs[:0]
	sur0 := c.surrogateStats()
	drop0, err := c.routerDropped()
	if err != nil {
		return nil, err
	}
	retries0 := c.client.Stats().Retries
	var fe0, be0 ioSnapshot
	if tr != nil {
		fe0, be0 = tr.fe.snapshot(), tr.be.snapshot()
	}
	for r := 0; r < n; r++ {
		items, err := planRound(sp, seed, r, each)
		if err != nil {
			return nil, fmt.Errorf("plan round %d: %w", r, err)
		}
		p.schedule.add(items)
		rec := newRecorder(len(items), tr)
		rd, err := measureRound(c, sp, items, each, rec, pr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		p.rounds = append(p.rounds, rd)
		start := len(p.latMs)
		for i := 0; i < rd.sent; i++ {
			if rec.status[i] == sentOK {
				p.results.add(r, i, &items[i])
				p.latMs = append(p.latMs, rec.latMs[i])
			}
			if tr != nil {
				p.lagMs = append(p.lagMs, rec.lagMs[i])
				if rec.status[i] == sentOK {
					p.queueMs = append(p.queueMs, rec.queueMs[i])
					p.lingerMs = append(p.lingerMs, rec.lingerMs[i])
				}
			}
		}
		ok := p.latMs[start:]
		sort.Float64s(ok)
		rd.p50Ms = median(ok)
		rd.within = sort.SearchFloat64s(ok, ms(sp.limit)/rd.latScale+1e-9)
	}
	if tr != nil {
		p.fe, p.be = tr.fe.snapshot().sub(fe0), tr.be.snapshot().sub(be0)
	}
	sur1 := c.surrogateStats()
	p.sur = dalvik.Stats{Executed: sur1.Executed - sur0.Executed, Failed: sur1.Failed - sur0.Failed,
		Rejected: sur1.Rejected - sur0.Rejected}
	drop1, err := c.routerDropped()
	if err != nil {
		return nil, err
	}
	p.dropped = drop1 - drop0
	p.retries = c.client.Stats().Retries - retries0
	return p, nil
}

// measureRound runs one round's items against c and collects its
// outcome, process CPU time and allocation counts.
func measureRound(c *cluster, sp spec, items []item, d time.Duration, rec *recorder, pr *probe) (*round, error) {
	ctx := context.Background()
	rd := &round{}
	runtime.GC()
	before, err := pr.run()
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	if rec.tr != nil {
		rec.tr.on.Store(true)
	}
	steal0, ticks0 := stealTicks()
	if sp.callers > 0 {
		rd.sent, rd.window = runClosed(ctx, c.client, items, sp.callers, d, rec)
	} else {
		rd.sent, rd.window = runOpen(ctx, c.client, items, sp.inFlight, rec)
	}
	if steal1, ticks1 := stealTicks(); ticks1 > ticks0 {
		rd.steal = float64(steal1-steal0) / float64(ticks1-ticks0)
	}
	if rec.tr != nil {
		rec.tr.on.Store(false)
	}
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	rd.cpu = cpu1 - cpu0
	after, err := pr.run()
	if err != nil {
		return nil, err
	}
	rd.probe = mid(before, after)
	rd.rateScale, rd.latScale, rd.cpuScale = sp.scale(rd.probe.mean), sp.scale(rd.probe.median), sp.scale(rd.probe.cpu)
	rd.mallocs = ms1.Mallocs - ms0.Mallocs
	rd.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	for i := 0; i < rd.sent; i++ {
		rd.counts[rec.status[i]]++
	}
	if rd.completed() == 0 {
		return nil, errors.New("no offload completed")
	}
	return rd, nil
}

// report prints a phase's digests, counts and per-round sample sizes.
func report(w io.Writer, sp spec, p *phase) {
	sent := p.sent()
	fmt.Fprintf(w, "schedule digest=%s planned_rounds=%d calm_rounds=%d\n", p.schedule, len(p.rounds), len(p.calm()))
	fmt.Fprintf(w, "result digest=%s attempted=%d completed=%d failed=%d refused=%d wrong=%d failed_frac=%v\n",
		p.results, sent, p.completed(), p.failed(), p.count(sentRefused), p.count(sentWrong),
		float64(p.failed())/float64(sent))
	for i, r := range p.rounds {
		fmt.Fprintf(w, "round %d window_s=%.3f attempted=%d samples=%d p50_ms=%.4f limit_ms=%v cpu_us_per_op=%.2f probe_us mean=%.2f median=%.2f cpu=%.2f steal=%.3f\n",
			i, r.window.Seconds(), r.sent, r.completed(), r.p50Ms, ms(sp.limit), r.cpuPerOp(),
			us(r.probe.mean), us(r.probe.median), us(r.probe.cpu), r.steal)
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// scaledCPU is a round's CPU time per verified offload, scaled to the
// reference host.
func scaledCPU(r *round) float64 { return r.cpuPerOp() * r.cpuScale }

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// perLayer turns a traced phase into the per-layer metrics. plain is
// the untraced phase of the same run, the base of trace.overhead_frac.
func perLayer(stdout io.Writer, sp spec, p, plain *phase, tr *tracer, iso isolated) ([]metric, error) {
	var lat [nLayers][]float64
	for l := range lat {
		lat[l] = tr.durationsUs(l)
		_, dropped := tr.kept(l)
		fmt.Fprintf(stdout, "spans layer=%s kept=%d dropped=%d mean_us=%v\n", layerNames[l], len(lat[l]), dropped, mean(lat[l]))
	}
	if err := checkSpans(sp, tr, p.completed()); err != nil {
		return nil, err
	}
	ops := float64(p.completed())
	sort.Float64s(p.lagMs)
	sort.Float64s(p.queueMs)
	sort.Float64s(p.lingerMs)
	lagP99, beyond, ok := percentile(p.lagMs, 0.99)
	if !ok {
		return nil, fmt.Errorf("only %d beyond the lag p99", beyond)
	}
	queueP99, beyond, ok := percentile(p.queueMs, 0.99)
	if !ok {
		return nil, fmt.Errorf("only %d beyond the queue-wait p99", beyond)
	}
	if p.be.frames == 0 {
		return nil, errors.New("no request frame reached a surrogate")
	}
	sdnSorted := append([]float64(nil), lat[layerSDN]...)
	sort.Float64s(sdnSorted)
	rpcSelf := selfTime(lat[layerRPC], lat[layerSDN])
	sdnSelf := selfTime(lat[layerSDN], lat[layerDalvik])
	dalvikSelf := selfTime(lat[layerDalvik], lat[layerTask])
	taskMean := mean(lat[layerTask])
	// The sum telescopes to the client span's mean by definition: it is
	// printed as a reading aid, not as a check.
	fmt.Fprintf(stdout, "self times rpc=%v sdn=%v dalvik=%v tasks=%v sum=%v us = mean rpc span\n",
		rpcSelf, sdnSelf, dalvikSelf, taskMean, rpcSelf+sdnSelf+dalvikSelf+taskMean)
	return []metric{
		{"driver.lag_p99_ms", "ms", lagP99},
		{"rpc.self_us", "us", rpcSelf},
		{"rpc.retries", "count", float64(p.retries)},
		{"wire.fe_bytes_per_op", "B", float64(p.fe.bytes) / ops},
		{"wire.backend_bytes_per_op", "B", float64(p.be.bytes) / ops},
		{"wire.fe_syscalls_per_op", "count", float64(p.fe.calls) / ops},
		{"wire.backend_syscalls_per_op", "count", float64(p.be.calls) / ops},
		{"wire.codec_ns", "ns", iso.codecNs},
		{"wire.codec_allocs", "count", iso.codecAllocs},
		{"sdn.span_us_p50", "us", median(sdnSorted)},
		{"sdn.self_us", "us", sdnSelf},
		{"router.dropped", "count", float64(p.dropped)},
		{"serve.queue_wait_ms_p50", "ms", median(p.queueMs)},
		{"serve.queue_wait_ms_p99", "ms", queueP99},
		{"serve.linger_ms_p50", "ms", median(p.lingerMs)},
		{"serve.calls_per_frame", "count", float64(p.sur.Executed) / float64(p.be.frames)},
		{"serve.rejected", "count", float64(p.count(sentRefused))},
		{"dalvik.self_us", "us", dalvikSelf},
		{"dalvik.rejected", "count", float64(p.sur.Rejected)},
		{"dalvik.failed", "count", float64(p.sur.Failed)},
		{"tasks.exec_us", "us", taskMean},
		{"tasks.isolated_us", "us", iso.taskUs},
		{"tasks.exec_allocs", "count", iso.taskAllocs},
		{"trace.overhead_frac", "frac", p.median(scaledCPU)/plain.median(scaledCPU) - 1},
	}, nil
}

// checkSpans checks that the traced layers saw the same requests, which
// self times, as differences of layer means, need. No layer may drop a
// span, and on a closed loop, where every offload passes each layer
// exactly once, each must keep one span per verified offload.
func checkSpans(sp spec, tr *tracer, completed int) error {
	for l := 0; l < nLayers; l++ {
		spans, dropped := tr.kept(l)
		switch {
		case len(spans) == 0:
			return fmt.Errorf("traced run recorded no %s spans", layerNames[l])
		case dropped > 0:
			return fmt.Errorf("traced run dropped %d %s spans", dropped, layerNames[l])
		case sp.callers > 0 && len(spans) != completed:
			return fmt.Errorf("traced run kept %d %s spans for %d verified offloads", len(spans), layerNames[l], completed)
		}
	}
	return nil
}

// isolated holds costs measured outside the cluster, on inputs drawn
// like the workload's own.
type isolated struct {
	codecNs, codecAllocs float64 // per Append+Decode of one request and one response
	taskUs, taskAllocs   float64 // per Pool.Execute
}

// isolatedSample is how many inputs the isolated measurements cycle
// through; isolatedMin is how long each measures at least.
const (
	isolatedSample = 1000
	isolatedMin    = 100 * time.Millisecond
)

func measureIsolated(sp spec, sample []item) (isolated, error) {
	reqs := make([]wire.OffloadRequest, len(sample))
	resps := make([]wire.OffloadResponse, len(sample))
	for i := range sample {
		res, err := sp.pool.Execute(sample[i].state)
		if err != nil {
			return isolated{}, err
		}
		reqs[i] = wire.OffloadRequest{UserID: sample[i].user, Group: group, BatteryLevel: 1, State: sample[i].state}
		resps[i] = wire.OffloadResponse{Result: res, Server: "surrogate-0", Group: group,
			Timings: wire.Timings{RoutingMs: 0.01, BackendMs: 0.05, CloudMs: 0.01}}
	}
	var buf []byte
	var codecErr error
	codecNs, codecAllocs := perOp(len(sample), func(i int) {
		buf = wire.AppendOffloadRequest(buf[:0], reqs[i])
		if _, err := wire.DecodeOffloadRequest(buf); err != nil {
			codecErr = err
		}
		buf = wire.AppendOffloadResponse(buf[:0], resps[i])
		if _, err := wire.DecodeOffloadResponse(buf); err != nil {
			codecErr = err
		}
	})
	if codecErr != nil {
		return isolated{}, fmt.Errorf("codec: %w", codecErr)
	}
	var taskErr error
	taskNs, taskAllocs := perOp(len(sample), func(i int) {
		if _, err := sp.pool.Execute(sample[i].state); err != nil {
			taskErr = err
		}
	})
	if taskErr != nil {
		return isolated{}, fmt.Errorf("task: %w", taskErr)
	}
	return isolated{codecNs: codecNs, codecAllocs: codecAllocs, taskUs: taskNs / 1e3, taskAllocs: taskAllocs}, nil
}

// perOp cycles op over n inputs for at least isolatedMin and returns
// nanoseconds and allocations per call.
func perOp(n int, op func(i int)) (ns, allocs float64) {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := time.Now()
	calls := 0
	for time.Since(start) < isolatedMin {
		for i := 0; i < n; i++ {
			op(i)
		}
		calls += n
	}
	el := time.Since(start)
	runtime.ReadMemStats(&b)
	return float64(el.Nanoseconds()) / float64(calls), float64(b.Mallocs-a.Mallocs) / float64(calls)
}
