package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"accelcloud/internal/rpc"
	"accelcloud/internal/serve"
	"accelcloud/internal/tasks"
)

// blockingBackend serves /execute but holds every request until
// release is closed — the tool for pinning a backend's admission queue
// at capacity.
func blockingBackend(t *testing.T, release <-chan struct{}) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"server":"slow","result":{"task":"minimax"}}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func fastBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"server":"fast","result":{"task":"minimax"}}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func pickQueue(t *testing.T, r *Router, group int, url string) *serve.Queue {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		p, err := r.Pick(group)
		if err != nil {
			t.Fatal(err)
		}
		q := p.Queue()
		u := p.URL()
		r.Release(p, true)
		if u == url {
			return q
		}
	}
	t.Fatalf("never picked %s", url)
	return nil
}

// pinQueue fills q — one dispatcher, depth queue slots — with jobs that
// block on the backend, and waits until it is saturated. The first job
// must be executing before the rest are submitted: submitted at once,
// they can fill the queue before the dispatcher pulls one, and the last
// is then rejected instead of queued.
func pinQueue(t *testing.T, q *serve.Queue, wg *sync.WaitGroup, depth int) {
	t.Helper()
	req := rpc.ExecuteRequest{State: tasks.State{Task: "minimax", Size: 1}}
	submit := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = q.Submit(context.Background(), req)
		}()
	}
	wait := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: queued=%d executing=%d", what, q.Queued(), q.Executing())
			}
			time.Sleep(time.Millisecond)
		}
	}
	submit()
	wait("first job never dispatched", func() bool { return q.Executing() == 1 })
	for i := 0; i < depth; i++ {
		submit()
	}
	wait("queue never saturated", q.Saturated)
}

// TestBackpressureFence is the serving-layer fence: a backend whose
// admission queue is pinned at capacity (limit + depth all blocked) is
// never picked, picks land on the unsaturated peer, and once the
// backlog drains the parked backend rejoins rotation. Run under -race
// this also exercises the Saturated gauge reads against concurrent
// Submit/dispatch traffic.
func TestBackpressureFence(t *testing.T) {
	release := make(chan struct{})
	slow := blockingBackend(t, release)
	fast := fastBackend(t)

	r := New(nil)
	if err := r.SetServeConfig(serve.Config{Limit: 1, Depth: 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(1, slow.URL); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(1, fast.URL); err != nil {
		t.Fatal(err)
	}

	// Pin the slow backend's queue: 1 executing + 2 queued.
	q := pickQueue(t, r, 1, slow.URL)
	if q == nil {
		t.Fatal("no admission queue on picked backend")
	}
	var wg sync.WaitGroup
	pinQueue(t, q, &wg, 2)

	// The fence: concurrent pickers must all steer to the fast backend.
	var pickers sync.WaitGroup
	for w := 0; w < 4; w++ {
		pickers.Add(1)
		go func() {
			defer pickers.Done()
			for i := 0; i < 200; i++ {
				p, err := r.Pick(1)
				if err != nil {
					t.Errorf("pick %d: %v", i, err)
					return
				}
				if p.URL() == slow.URL {
					t.Errorf("pick %d landed on the saturated backend", i)
				}
				r.Release(p, true)
			}
		}()
	}
	pickers.Wait()

	// /stats must surface the pressure while it exists.
	var slowInfo *BackendInfo
	for _, bi := range r.Pool(1) {
		if bi.URL == slow.URL {
			b := bi
			slowInfo = &b
		}
	}
	if slowInfo == nil {
		t.Fatal("saturated backend missing from pool info")
	}
	if slowInfo.Queued != 2 || slowInfo.ConcurrencyLimit != 1 {
		t.Fatalf("pool info = %+v, want queued 2 limit 1", slowInfo)
	}

	// Drain and verify the backend rejoins rotation.
	close(release)
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for {
		p, err := r.Pick(1)
		if err != nil {
			t.Fatal(err)
		}
		u := p.URL()
		r.Release(p, true)
		if u == slow.URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drained backend never rejoined rotation")
		}
	}
}

// TestPickAllSaturated proves the terminal case: when every active
// backend backpressures, Pick surfaces ErrGroupSaturated carrying the
// typed serve.ErrQueueFull marker, so the front-end's 503 is
// classifiable client-side.
func TestPickAllSaturated(t *testing.T) {
	release := make(chan struct{})
	slow := blockingBackend(t, release)

	r := New(nil)
	if err := r.SetServeConfig(serve.Config{Limit: 1, Depth: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(1, slow.URL); err != nil {
		t.Fatal(err)
	}
	q := pickQueue(t, r, 1, slow.URL)
	var wg sync.WaitGroup
	// Teardown order matters: release the blocked handler first, then
	// wait for the submits, then (the blockingBackend cleanup) close
	// the server. Cleanups run LIFO.
	t.Cleanup(wg.Wait)
	t.Cleanup(func() { close(release) })
	pinQueue(t, q, &wg, 1)
	_, err := r.Pick(1)
	if !errors.Is(err, ErrGroupSaturated) {
		t.Fatalf("Pick = %v, want ErrGroupSaturated", err)
	}
	if !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("saturation error lost the queue-full marker: %v", err)
	}
}
