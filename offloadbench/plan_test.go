package main

import (
	"testing"
	"time"
)

func scheduleDigestOf(t *testing.T, sp spec, seed int64) string {
	t.Helper()
	items, err := planRound(sp, seed, 0, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	d.add(items)
	return d.String()
}

func TestScheduleDigestFollowsSeed(t *testing.T) {
	for name, sp := range workloads {
		t.Run(name, func(t *testing.T) {
			a, b := scheduleDigestOf(t, sp, 7), scheduleDigestOf(t, sp, 7)
			if a != b {
				t.Errorf("same seed, different digests: %s vs %s", a, b)
			}
			if c := scheduleDigestOf(t, sp, 8); c == a {
				t.Errorf("seeds 7 and 8 give the same digest %s", a)
			}
		})
	}
}

func TestPlanInputsAreDistinctAndExpected(t *testing.T) {
	sp := workloads["tiny-bin"]
	items, err := planRound(sp, 3, 0, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range items {
		it := &items[i]
		if seen[string(it.state.Data)] {
			t.Fatalf("item %d repeats an earlier input %s", i, it.state.Data)
		}
		seen[string(it.state.Data)] = true
		res, err := sp.pool.Execute(it.state)
		if err != nil {
			t.Fatal(err)
		}
		if !it.check(res) {
			t.Fatalf("item %d: its own result fails the check", i)
		}
		res.Ops++
		if it.check(res) {
			t.Fatalf("item %d: a result with wrong Ops passes the check", i)
		}
	}
}

func TestCrowdScheduleHasItsCrowd(t *testing.T) {
	sp := workloads["crowd-queue"]
	const d = 2 * time.Second
	items, err := planRound(sp, 1, 0, d)
	if err != nil {
		t.Fatal(err)
	}
	var inCrowd, outside int
	for _, it := range items {
		if it.due >= 2*d/5 && it.due < 3*d/5 {
			inCrowd++
		} else {
			outside++
		}
	}
	// The middle fifth runs at three times the base rate: its count is
	// about 3/4 of the other four fifths together.
	if ratio := float64(inCrowd) / float64(outside); ratio < 0.6 || ratio > 0.9 {
		t.Errorf("crowd/outside = %d/%d = %.2f, want about 0.75", inCrowd, outside, ratio)
	}
}
