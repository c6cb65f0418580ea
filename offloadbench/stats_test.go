package main

import (
	"math"
	"testing"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		wantBeyond int
		wantOK     bool
	}{
		{n: 100, wantBeyond: 1, wantOK: false},
		{n: 999, wantBeyond: 9, wantOK: false},
		{n: 1000, wantBeyond: 10, wantOK: true},
		{n: 5000, wantBeyond: 50, wantOK: true},
	} {
		v, beyond, ok := percentile(ascending(tc.n), 0.99)
		if beyond != tc.wantBeyond || ok != tc.wantOK {
			t.Errorf("n=%d: beyond=%d ok=%v, want %d %v", tc.n, beyond, ok, tc.wantBeyond, tc.wantOK)
		}
		if want := float64(tc.n - tc.wantBeyond); v != want {
			t.Errorf("n=%d: p99=%v, want %v", tc.n, v, want)
		}
	}
	if _, _, ok := percentile(nil, 0.99); ok {
		t.Error("p99 of no samples reported")
	}
}

func TestMedianNearestRank(t *testing.T) {
	if got := median([]float64{1, 2, 3, 4}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{1, 2, 3}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{ascending(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2}, [3]float64{1.4375, 2.75, 7.625}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if !ok || math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v, want %v", tc.xs, got, ok, tc.want)
				break
			}
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported")
	}
}

func TestSelfTimeIsParentMeanMinusChildMean(t *testing.T) {
	client := []float64{100, 140, 120} // mean 120
	frontEnd := []float64{70, 90, 80}  // mean 80
	surrogate := []float64{20, 30, 40} // mean 30
	task := []float64{10, 20, 30}      // mean 20
	if got := selfTime(client, frontEnd); got != 40 {
		t.Errorf("rpc self = %v, want 40", got)
	}
	if got := selfTime(frontEnd, surrogate); got != 50 {
		t.Errorf("sdn self = %v, want 50", got)
	}
	if got := selfTime(surrogate, task); got != 10 {
		t.Errorf("dalvik self = %v, want 10", got)
	}
	sum := selfTime(client, frontEnd) + selfTime(frontEnd, surrogate) + selfTime(surrogate, task) + mean(task)
	if sum != mean(client) {
		t.Errorf("self times plus task mean = %v, want the client mean %v", sum, mean(client))
	}
}

func TestCalmRoundsDropTheStolenHalf(t *testing.T) {
	p := &phase{}
	for _, s := range []float64{0.10, 0, 0.30, 0.05} {
		p.rounds = append(p.rounds, &round{steal: s, p50Ms: 1 + s})
	}
	calm := p.calm()
	if len(calm) != 2 || calm[0].steal != 0 || calm[1].steal != 0.05 {
		t.Fatalf("calm rounds %v, want those with steal 0 and 0.05", calm)
	}
	if got := p.median(func(r *round) float64 { return r.p50Ms }); got != 1 {
		t.Errorf("median over calm rounds = %v, want 1", got)
	}
	quiet := &phase{rounds: []*round{{}, {}, {}}}
	if n := len(quiet.calm()); n != 3 {
		t.Errorf("without steal %d of 3 rounds are calm, want all", n)
	}
}
