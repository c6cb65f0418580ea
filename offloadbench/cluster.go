package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"accelcloud/internal/dalvik"
	"accelcloud/internal/rpc"
	"accelcloud/internal/sdn"
	"accelcloud/internal/wire"
)

// group is the single acceleration group every workload offloads to.
const group = 1

// callTimeout bounds each offload end to end; a call that exceeds it
// counts as failed.
const callTimeout = 5 * time.Second

// cluster is a hermetic stack booted in-process from the public
// constructors: surrogates behind their wire or JSON servers, a
// front-end routing to them, and one client aimed at the front-end.
type cluster struct {
	fe     *sdn.FrontEnd
	surs   []*dalvik.Surrogate
	urls   []string
	client *rpc.Client
	hc     *http.Client // the JSON client's own transport

	stops []func()
	wg    sync.WaitGroup
}

// boot starts the stack of sp on loopback. With a non-nil tracer every
// layer's entry point is wrapped and every listener counted; without
// one, nothing is wrapped.
func boot(sp spec, tr *tracer) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	var opts []sdn.Option
	if sp.queue {
		opts = append(opts, sdn.WithQueue(2, 64), sdn.WithBatching(8, time.Millisecond))
	}
	if c.fe, err = sdn.New(opts...); err != nil {
		return c, err
	}
	for i := 0; i < sp.surrogates; i++ {
		url, err := c.startSurrogate(sp, i, tr)
		if err != nil {
			return c, err
		}
		if err := c.fe.Register(group, url); err != nil {
			return c, err
		}
		c.urls = append(c.urls, url)
	}
	var feCount *ioCount
	if tr != nil {
		feCount = &tr.fe
	}
	lis, err := listen(feCount, false)
	if err != nil {
		return c, err
	}
	addr := lis.Addr().String()
	if sp.binary {
		srv := c.fe.BinaryServer()
		if tr != nil {
			srv.H.Offload = tr.traceOffload(srv.H.Offload)
		}
		c.serveWire(srv, lis)
		c.client = rpc.NewClient(rpc.BinaryScheme+addr, rpc.WithTimeout(callTimeout))
		return c, nil
	}
	var h http.Handler = c.fe.Handler()
	if tr != nil {
		h = tr.traceHTTP(layerSDN, h)
	}
	c.serveHTTP(h, lis)
	c.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	c.client = rpc.NewClient("http://"+addr, rpc.WithTimeout(callTimeout), rpc.WithHTTPClient(c.hc))
	return c, nil
}

// startSurrogate boots surrogate i and returns the URL the front-end
// reaches it at.
func (c *cluster) startSurrogate(sp spec, i int, tr *tracer) (string, error) {
	s, err := dalvik.NewSurrogate(fmt.Sprintf("surrogate-%d", i), 0)
	if err != nil {
		return "", err
	}
	for _, name := range sp.pool.Names() {
		t, err := sp.pool.ByName(name)
		if err != nil {
			return "", err
		}
		if tr != nil {
			t = tracedTask{Task: t, tr: tr}
		}
		if err := s.Push(t); err != nil {
			return "", err
		}
	}
	c.surs = append(c.surs, s)
	var beCount *ioCount
	if tr != nil {
		beCount = &tr.be
	}
	lis, err := listen(beCount, sp.binary)
	if err != nil {
		return "", err
	}
	if sp.binary {
		srv := s.BinaryServer()
		if tr != nil {
			srv.H.Execute = tr.traceExecute(srv.H.Execute)
		}
		c.serveWire(srv, lis)
		return rpc.BinaryScheme + lis.Addr().String(), nil
	}
	var h http.Handler = s.Handler()
	if tr != nil {
		h = tr.traceHTTP(layerDalvik, h)
	}
	c.serveHTTP(h, lis)
	return "http://" + lis.Addr().String(), nil
}

// listen opens a loopback listener, counted when count is non-nil.
func listen(count *ioCount, frames bool) (net.Listener, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if count == nil {
		return lis, nil
	}
	return &countingListener{Listener: lis, c: count, frames: frames}, nil
}

func (c *cluster) serveWire(srv *wire.Server, lis net.Listener) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = srv.Serve(lis) // returns once Close has run
	}()
	c.stops = append(c.stops, func() { _ = srv.Close() })
}

func (c *cluster) serveHTTP(h http.Handler, lis net.Listener) {
	srv := &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = srv.Serve(lis) // returns ErrServerClosed once Close has run
	}()
	c.stops = append(c.stops, func() { _ = srv.Close() })
}

// close deregisters the backends (which stops their admission queues),
// shuts every server and waits for their accept loops to end.
func (c *cluster) close() {
	if c.fe != nil {
		for _, url := range c.urls {
			_ = c.fe.Remove(group, url) // idle after the run: cannot be busy
		}
	}
	if c.hc != nil {
		c.hc.CloseIdleConnections()
	}
	for i := len(c.stops) - 1; i >= 0; i-- {
		c.stops[i]()
	}
	c.wg.Wait()
}

// surrogateStats sums the surrogates' lifetime counters.
func (c *cluster) surrogateStats() dalvik.Stats {
	var sum dalvik.Stats
	for _, s := range c.surs {
		st := s.Stats()
		sum.Executed += st.Executed
		sum.Failed += st.Failed
		sum.Rejected += st.Rejected
	}
	return sum
}

// routerDropped reads the router's drop counter from the front-end's
// GET /stats endpoint, served in-process.
func (c *cluster) routerDropped() (int64, error) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequestWithContext(context.Background(), http.MethodGet, rpc.PathStats, nil)
	c.fe.Handler().ServeHTTP(rec, req)
	var st struct {
		Dropped int64 `json:"dropped"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("front-end /stats: %w", err)
	}
	return st.Dropped, nil
}
