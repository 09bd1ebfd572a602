package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// listener is one loopback HTTP server the benchmark started.
type listener struct {
	srv  *http.Server
	base string
	done chan struct{}
}

// listen serves the handler wrap builds for the listener's host:port
// on an ephemeral loopback port.
func listen(wrap func(host string) http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	readHeader, read, idle := server.Timeouts()
	l := &listener{
		srv:  &http.Server{Handler: wrap(ln.Addr().String()), ReadHeaderTimeout: readHeader, ReadTimeout: read, IdleTimeout: idle},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("pcbench: serving %s: %v\n", l.base, err)
		}
	}()
	return l, nil
}

// close shuts the server down and waits for its serve loop to return.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// node is one in-process measurement node on its own listener.
type node struct {
	srv *server.Server
	ln  *listener
	// host is the node's host:port, the name a front reports it by in
	// X-Pcfront-Backend and the name its handler timer records under.
	host string
}

// fleet is the system under test of one workload: one node answering
// directly, or three nodes behind an in-process cluster front.
type fleet struct {
	nodes   []*node
	front   *cluster.Front
	frontLn *listener
	// base is where the load clients send: the front, or the only node.
	base string
}

// frontTimer is the name the front's handler timer records under.
const frontTimer = "front"

// bootFleet starts the nodes (and for a cluster workload the front
// with production defaults) on loopback listeners. With timers, every
// handler is wrapped in them.
func bootFleet(wl *workload, timers *handlerTimers) (*fleet, error) {
	f := &fleet{}
	timed := func(h http.Handler) func(string) http.Handler {
		return func(name string) http.Handler {
			if timers == nil {
				return h
			}
			return timers.wrap(name, h)
		}
	}
	n := 1
	if wl.cluster {
		n = 3
	}
	for i := 0; i < n; i++ {
		srv := server.New(server.Config{Workers: wl.workers})
		ln, err := listen(timed(srv.Handler()))
		if err != nil {
			srv.Close()
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, &node{srv: srv, ln: ln, host: ln.base[len("http://"):]})
	}
	f.base = f.nodes[0].ln.base
	if !wl.cluster {
		return f, nil
	}
	var backends []string
	for _, nd := range f.nodes {
		backends = append(backends, nd.ln.base)
	}
	front, err := cluster.NewFront(cluster.Config{Backends: backends})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("starting the cluster front: %w", err)
	}
	f.front = front
	frontHandler := timed(front.Handler())
	if f.frontLn, err = listen(func(string) http.Handler { return frontHandler(frontTimer) }); err != nil {
		f.close()
		return nil, err
	}
	f.base = f.frontLn.base
	return f, nil
}

// close stops the front first, then drains each node's registries so
// open streams end, then its listener.
func (f *fleet) close() {
	if f.frontLn != nil {
		f.frontLn.close()
	}
	if f.front != nil {
		f.front.Close()
	}
	for _, nd := range f.nodes {
		nd.srv.Close()
		nd.ln.close()
	}
}

// bodyKey identifies a request body across hops: the front forwards
// bodies verbatim, so the client, the front and the node see one key.
type bodyKey [sha256.Size]byte

// handlerTimers wraps node and front handlers in the benchmark's own
// timers. While enabled, every traced request's handler wall time is
// recorded under (handler, body digest); the client matches them to
// its own round trips after the phase ends, when every handler has
// returned.
type handlerTimers struct {
	enabled atomic.Bool
	mu      sync.Mutex
	times   map[string]map[bodyKey][]time.Duration
}

func newHandlerTimers() *handlerTimers {
	return &handlerTimers{times: make(map[string]map[bodyKey][]time.Duration)}
}

// wrap times h. Only POSTs to trace-capable endpoints are recorded;
// sessions, health and metrics pass straight through.
func (t *handlerTimers) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled.Load() || r.Method != http.MethodPost || r.URL.Path == "/sessions" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
		d := time.Since(start)
		key := bodyKey(sha256.Sum256(body))
		t.mu.Lock()
		m := t.times[name]
		if m == nil {
			m = make(map[bodyKey][]time.Duration)
			t.times[name] = m
		}
		m[key] = append(m[key], d)
		t.mu.Unlock()
	})
}

// take removes and returns one recorded handler time for the body on
// the named handler.
func (t *handlerTimers) take(name string, key bodyKey) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ds := t.times[name][key]
	if len(ds) == 0 {
		return 0, false
	}
	d := ds[0]
	t.times[name][key] = ds[1:]
	return d, true
}
