package main

import (
	"strings"
	"testing"
	"time"
)

func TestProbeReading(t *testing.T) {
	p, err := newProbe()
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.run()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.close(); err != nil {
		t.Fatal(err)
	}
	if r.mean <= 0 || r.median <= 0 || r.cpu <= 0 {
		t.Fatalf("reading %+v: want every figure positive", r)
	}
	if r.median > 4*r.mean {
		t.Errorf("median round trip %v far above the mean %v", r.median, r.mean)
	}
}

func TestScaleOnlyClosedLoops(t *testing.T) {
	closed, open := workloads["tiny-bin"], workloads["crowd-queue"]
	if got := closed.scale(2 * probeRef); got != 0.5 {
		t.Errorf("closed loop, probe at twice the reference: scale %v, want 0.5", got)
	}
	if got := closed.scale(probeRef); got != 1 {
		t.Errorf("closed loop, probe at the reference: scale %v, want 1", got)
	}
	if got := open.scale(2 * probeRef); got != 1 {
		t.Errorf("open loop: scale %v, want 1", got)
	}
	m := mid(probeReading{10, 20, 30}, probeReading{30, 40, 50})
	if m != (probeReading{20, 30, 40}) {
		t.Errorf("mid = %+v", m)
	}
}

// tracerWith returns a tracer whose layers kept the given span counts,
// with room for capacity spans each.
func tracerWith(capacity int, counts [nLayers]int) *tracer {
	tr := newTracer(capacity)
	tr.on.Store(true)
	now := time.Now()
	for l, n := range counts {
		for i := 0; i < n; i++ {
			tr.record(l, 0, now, now.Add(time.Microsecond))
		}
	}
	return tr
}

func TestCheckSpans(t *testing.T) {
	closed, open := workloads["tiny-bin"], workloads["crowd-queue"]
	for _, tc := range []struct {
		name     string
		sp       spec
		capacity int
		counts   [nLayers]int
		want     string // "" for no error, else a substring of it
	}{
		{"closed, one span per offload", closed, 10, [nLayers]int{5, 5, 5, 5}, ""},
		{"closed, a retried call", closed, 10, [nLayers]int{5, 6, 5, 5}, "kept 6 sdn spans for 5"},
		{"closed, a layer missed", closed, 10, [nLayers]int{5, 5, 4, 5}, "kept 4 dalvik spans for 5"},
		{"open, counts may differ", open, 10, [nLayers]int{5, 5, 7, 7}, ""},
		{"open, dropped spans", open, 6, [nLayers]int{5, 5, 7, 7}, "dropped 1 dalvik spans"},
		{"no spans", open, 10, [nLayers]int{5, 5, 5, 0}, "no tasks spans"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := checkSpans(tc.sp, tracerWith(tc.capacity, tc.counts), 5)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("unexpected error: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
