package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// probe is the benchmark's host-speed reference: a fixed job built
// only from this file and the standard library, so no change to the
// repository can move it. Each round trip does what one offload hop
// does — a loopback TCP write and read on each side, two goroutine
// wake-ups through the netpoller, a small allocation, a hash and a
// sort — so a host that slows the offload path slows the probe in
// step with it.
type probe struct {
	cli, srv net.Conn
	wg       sync.WaitGroup
	buf      [probeMsg]byte
	trips    [probeTrips]time.Duration
}

// probeReading is one probe run's time per round trip: the mean and
// the median wall-clock time, and the mean process CPU time. Time
// slicing, as when the host takes the CPU away, stretches a few round
// trips and raises the mean; a uniformly slower CPU raises the median
// too.
type probeReading struct {
	mean, median, cpu time.Duration
}

// probeMsg is the size of one probe message in bytes.
const probeMsg = 256

func newProbe() (*probe, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer lis.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := lis.Accept()
		ch <- accepted{c, err}
	}()
	cli, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return nil, err
	}
	a := <-ch
	if a.err != nil {
		cli.Close()
		return nil, a.err
	}
	p := &probe{cli: cli, srv: a.c}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// serve echoes each message after working on it, until the client
// closes the connection.
func (p *probe) serve() {
	defer p.wg.Done()
	var in [probeMsg]byte
	for {
		if _, err := io.ReadFull(p.srv, in[:]); err != nil {
			return
		}
		out := make([]byte, probeMsg)
		keys := make([]int, 32)
		h := fnv.New64a()
		_, _ = h.Write(in[:])
		s := h.Sum64()
		for i := range keys {
			keys[i] = int(s >> (i % 61))
		}
		sort.Ints(keys)
		for i := range out {
			out[i] = in[i] ^ byte(keys[i%len(keys)])
		}
		if _, err := p.srv.Write(out); err != nil {
			return
		}
	}
}

// run makes probeTrips round trips.
func (p *probe) run() (probeReading, error) {
	cpu0, err := cpuTime()
	if err != nil {
		return probeReading{}, err
	}
	start := time.Now()
	last := start
	for i := range p.trips {
		p.buf[0] = byte(i)
		if _, err := p.cli.Write(p.buf[:]); err != nil {
			return probeReading{}, fmt.Errorf("probe write: %w", err)
		}
		if _, err := io.ReadFull(p.cli, p.buf[:]); err != nil {
			return probeReading{}, fmt.Errorf("probe read: %w", err)
		}
		now := time.Now()
		p.trips[i], last = now.Sub(last), now
	}
	cpu1, err := cpuTime()
	if err != nil {
		return probeReading{}, err
	}
	slices.Sort(p.trips[:])
	return probeReading{
		mean:   last.Sub(start) / probeTrips,
		median: p.trips[probeTrips/2],
		cpu:    (cpu1 - cpu0) / probeTrips,
	}, nil
}

// mid averages two readings, taken before and after a measurement.
func mid(a, b probeReading) probeReading {
	return probeReading{(a.mean + b.mean) / 2, (a.median + b.median) / 2, (a.cpu + b.cpu) / 2}
}

func (p *probe) close() error {
	err := errors.Join(p.cli.Close(), p.srv.Close())
	p.wg.Wait()
	return err
}

// probeTrips is the number of round trips one probe reading makes,
// about 15 ms of work.
const probeTrips = 1000

// probeRef is the probe's round trip on the reference host: about its
// mean on the 2-vCPU cloud virtual machine the benchmark was written
// on, at GOMAXPROCS 1. Only ratios between runs matter; the constant
// keeps scaled figures near the raw ones on such a machine.
const probeRef = 15 * time.Microsecond

// scale is the factor that brings a figure of sp, measured while the
// probe took probe per round trip, to the reference host: durations
// are multiplied by it, rates divided. A closed loop keeps its CPU
// busy, so its pace is the host's speed: a host whose neighbours take
// its CPU, or share its cores, slows the probe and the offload path
// alike, and scaling takes that out. An open loop's pace is set by its
// schedule and its timers, and with spare CPU its CPU time follows how
// often the runtime idles, not the host's speed; its figures are not
// scaled (the factor is 1).
func (sp spec) scale(probe time.Duration) float64 {
	if sp.callers == 0 {
		return 1
	}
	return scale(probe)
}

// stealTicks reads the machine's CPU ticks from /proc/stat: those its
// hypervisor stole, and all of them. Where the file or its steal column
// is missing, both are 0.
func stealTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, field := range f[1:9] {
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// scale is the factor for any figure paced by the CPU.
func scale(probe time.Duration) float64 {
	return float64(probeRef) / float64(probe)
}
