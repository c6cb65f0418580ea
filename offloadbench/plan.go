package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"accelcloud/internal/sim"
	"accelcloud/internal/tasks"
	"accelcloud/internal/workload"
)

// spec is one benchmark workload: the cluster shape, the transport,
// the load model and the inputs it draws.
type spec struct {
	name string
	// binary selects bin:// on both hops; otherwise JSON over HTTP.
	binary bool
	// surrogates is the backend count of the single acceleration group.
	surrogates int
	// queue puts sdn.WithQueue(2, 64) and sdn.WithBatching(8, 1ms) in
	// front of every surrogate.
	queue bool
	// pool is the task set pushed to every surrogate.
	pool *tasks.Pool
	// draw picks one request's task and size (closed loops and
	// warm-up).
	draw func(r *rand.Rand) (task string, size int)
	// callers > 0 makes a closed loop with that many callers, whose
	// plan holds rateCap inputs per second of run; otherwise the
	// workload is an open loop over scenario(d) with at most inFlight
	// requests outstanding.
	callers  int
	rateCap  float64
	scenario func(d time.Duration) workload.ScenarioConfig
	inFlight int
	// limit is the latency limit of within_limit_frac.
	limit time.Duration
	// procs is the GOMAXPROCS of every boot and measured round; 0
	// means the CPU count.
	procs int
	// round is the length of one measured round.
	round time.Duration
}

// gomaxprocs is the GOMAXPROCS the workload is measured at.
func (sp spec) gomaxprocs() int {
	if sp.procs > 0 {
		return sp.procs
	}
	return runtime.NumCPU()
}

// warmupRequests is the request count of each boot's warm-up.
const warmupRequests = 400

var (
	tinyPool  = mustPool(tasks.Quicksort{})
	crowdPool = mustPool(tasks.Quicksort{}, tasks.Mergesort{}, tasks.Bubblesort{})
	// crowdSizer keeps the crowd mix's tasks small, so the serving
	// layer's waits, not task compute, dominate its latency.
	crowdSizer = workload.RangeSizer{Default: [2]int{16, 48}}
	// paperPool and paperSizer are the paper's ten tasks at the sizes
	// the rest of the repository draws them with.
	paperPool  = tasks.DefaultPool()
	paperSizer = workload.DefaultSizer()
)

func mustPool(ts ...tasks.Task) *tasks.Pool {
	p, err := tasks.NewPool(ts...)
	if err != nil {
		panic(err) // fixed literals: only a programming error fails
	}
	return p
}

// The latency limits of within_limit_frac. The closed loops' lie at
// their p99 on the reference host (see probeRef). The open loop's
// latencies are not scaled and take every stall of the host's CPU, so
// its limit is about three times its calm p99, above those stalls.
const (
	tinyLimit  = 300 * time.Microsecond
	poolLimit  = 3 * time.Millisecond
	crowdLimit = 10 * time.Millisecond
)

// closedRound is the round length of the closed loops. Their host's
// speed changes from one tenth of a second to the next, so their
// rounds are short and each is bracketed by probes (see scale).
const closedRound = 250 * time.Millisecond

// workloads are the benchmark's workloads, by name.
var workloads = map[string]spec{
	"tiny-bin": {
		name: "tiny-bin", binary: true, surrogates: 2, pool: tinyPool,
		draw:    func(*rand.Rand) (string, int) { return "quicksort", 8 },
		callers: 2, rateCap: 30000,
		limit: tinyLimit, procs: 1, round: closedRound,
	},
	"pool-json": {
		name: "pool-json", surrogates: 2, pool: paperPool,
		draw: func(r *rand.Rand) (string, int) {
			t := paperPool.Random(r)
			return t.Name(), paperSizer.Draw(r, t.Name())
		},
		callers: 2, rateCap: 4000,
		limit: poolLimit, procs: 1, round: closedRound,
	},
	"crowd-queue": {
		name: "crowd-queue", binary: true, surrogates: 2, queue: true, pool: crowdPool,
		draw: func(r *rand.Rand) (string, int) {
			t := crowdPool.Random(r)
			return t.Name(), crowdSizer.Draw(r, t.Name())
		},
		scenario: crowdScenario, inFlight: 64,
		limit: crowdLimit, round: 2 * time.Second,
	},
}

// crowdScenario is the open-loop schedule of crowd-queue: 1000 users
// at 1 req/s each, with a flash crowd tripling every user's rate for
// the middle fifth of the run.
func crowdScenario(d time.Duration) workload.ScenarioConfig {
	const users = 1000
	return workload.ScenarioConfig{
		Users:      users,
		Duration:   d,
		BaseRateHz: 1,
		Crowds: []workload.FlashCrowd{{
			Start: 2 * d / 5, Duration: d / 5,
			UserLo: 0, UserHi: users, Multiplier: 3,
		}},
		Pool:    crowdPool,
		Sizer:   crowdSizer,
		TaskMix: map[string]float64{"quicksort": 1, "mergesort": 1, "bubblesort": 1},
	}
}

// item is one planned offload: when it is due (open loop), who sends
// it, its input, and the expected result, computed with Pool.Execute
// before any timing starts.
type item struct {
	due   time.Duration
	user  int
	state tasks.State
	ops   int64
	sum   uint64 // fnv-1a of the expected Result.Data
}

// check compares a response's result with the expected one.
func (it *item) check(res tasks.Result) bool {
	return res.Task == it.state.Task && res.Ops == it.ops && fnv64(res.Data) == it.sum
}

// roundsOf splits a run of d into rounds of about sp.round. Each round
// has its own inputs, and the end-to-end metrics are medians over the
// rounds, so a short burst of host noise moves one round, not the run.
func roundsOf(sp spec, d time.Duration) (n int, each time.Duration) {
	n = max(1, int(d/sp.round))
	return n, d / time.Duration(n)
}

// planChunk is the number of items generated from one RNG substream;
// fixing it makes the plan independent of how many workers build it.
const planChunk = 2048

// planRound makes the inputs of round r, of length d, from seed.
func planRound(sp spec, seed int64, r int, d time.Duration) ([]item, error) {
	root := sim.NewRNG(seed).Sub(sp.name).SubN("round", r)
	var items []item
	if sp.callers > 0 {
		items = drawClosed(sp, root.Stream("draws"), roundCapacity(sp, d), sp.callers)
	} else {
		stream, err := workload.NewScenarioStream(root.Sub("schedule"), sp.scenario(d))
		if err != nil {
			return nil, err
		}
		start := workload.ScenarioStart()
		var req workload.Request
		for stream.Next(&req) {
			items = append(items, item{
				due:   req.At.Sub(start),
				user:  req.UserID,
				state: tasks.State{Task: req.TaskName, Size: req.Size},
			})
		}
	}
	if err := fillStates(sp.pool, root.Sub("inputs"), items); err != nil {
		return nil, err
	}
	return items, nil
}

// drawPlan makes n closed-loop inputs from the named substream, which
// the measured rounds never use: the warm-up and the isolated
// measurements draw from here.
func drawPlan(sp spec, seed int64, name string, n int) ([]item, error) {
	root := sim.NewRNG(seed).Sub(sp.name).Sub(name)
	items := drawClosed(sp, root.Stream("draws"), n, sp.warmCallers())
	if err := fillStates(sp.pool, root.Sub("inputs"), items); err != nil {
		return nil, err
	}
	return items, nil
}

// roundCapacity bounds how many requests one round of length d plans,
// for preallocating span stores.
func roundCapacity(sp spec, d time.Duration) int {
	if sp.callers > 0 {
		return max(1, int(sp.rateCap*d.Seconds()))
	}
	// Poisson arrivals: leave room far beyond the expected count.
	return int(1.5*workload.ExpectedRequests(sp.scenario(d))) + 1000
}

// drawClosed draws n closed-loop requests, spread over callers users.
func drawClosed(sp spec, r *rand.Rand, n, callers int) []item {
	items := make([]item, n)
	for i := range items {
		task, size := sp.draw(r)
		items[i] = item{user: i % callers, state: tasks.State{Task: task, Size: size}}
	}
	return items
}

// fillStates generates every item's input from its chunk's substream
// and computes its expected result, on all CPUs: it lifts GOMAXPROCS
// to the CPU count while it runs.
func fillStates(pool *tasks.Pool, root *sim.RNG, items []item) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	chunks := (len(items) + planChunk - 1) / planChunk
	var next atomic.Int64
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1) - 1)
				if c >= chunks || errs[w] != nil {
					return
				}
				r := root.StreamN("chunk", c)
				for i := c * planChunk; i < min(len(items), (c+1)*planChunk); i++ {
					if err := fillOne(pool, r, &items[i]); err != nil {
						errs[w] = fmt.Errorf("plan item %d: %w", i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func fillOne(pool *tasks.Pool, r *rand.Rand, it *item) error {
	t, err := pool.ByName(it.state.Task)
	if err != nil {
		return err
	}
	st, err := t.Generate(r, it.state.Size)
	if err != nil {
		return err
	}
	res, err := pool.Execute(st)
	if err != nil {
		return err
	}
	it.state, it.ops, it.sum = st, res.Ops, fnv64(res.Data)
	return nil
}

// digest is a running fnv-1a digest of planned requests.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) put(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	_, _ = d.h.Write(d.buf[:])
}

// add folds one round's planned requests — due offset, user, task,
// size and input bytes — into the schedule digest.
func (d *digest) add(items []item) {
	d.put(int64(len(items)))
	for i := range items {
		it := &items[i]
		d.put(int64(it.due))
		d.put(int64(it.user))
		_, _ = d.h.Write([]byte(it.state.Task))
		d.put(int64(it.state.Size))
		_, _ = d.h.Write(it.state.Data)
	}
}

func (d *digest) String() string { return fmt.Sprintf("fnv1a:%016x", d.h.Sum64()) }

// fnv64 is fnv-1a over b, written out so that checking a response in
// the timed window allocates nothing.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// resultDigest folds verified results into an order-independent
// digest, so concurrent completion order does not change it.
type resultDigest uint64

// add folds item i of round r, answered with its expected result.
func (d *resultDigest) add(r, i int, it *item) {
	*d += resultDigest(mix64(uint64(r)<<40 ^ uint64(i)<<8 ^ mix64(it.sum^uint64(it.ops))))
}

func (d resultDigest) String() string { return fmt.Sprintf("mix64:%016x", uint64(d)) }

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
