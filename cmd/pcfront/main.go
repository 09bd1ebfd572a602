// Command pcfront is the cluster coordinator: a proxy that
// consistent-hashes canonical request keys (api.RequestKeyForPath —
// the exact identity internal/service coalesces on) across a fleet of
// pcserved backends. Identical requests land on the same node, so
// cluster-wide request coalescing and calibration-cache affinity fall
// out of routing; and because every node answers a normalized request
// with a byte-identical body, any node is a correct fallback for
// retries and tail-latency hedging.
//
// Endpoints (the pcserved surface, proxied):
//
//	POST   /measure /analyze /plan /infer /experiment
//	                               keyed: ring-routed, retried, hedged
//	POST   /sessions /campaigns    keyed, never hedged (stateful create)
//	GET    /sessions/{id}[/stream], DELETE /sessions/{id}
//	GET    /campaigns/{id}[/stream], DELETE /campaigns/{id}
//	                               pinned to the owning node; streams
//	                               pass through NDJSON with per-chunk
//	                               flush
//
// plus the proxy's own:
//
//	GET  /healthz                  -> api.ClusterHealthResponse (503 when
//	                                  no backend can serve)
//	GET  /cluster                  -> same body, 200 always useful for
//	                                  fleet inspection
//	POST /cluster/drain/{node}     mark a node draining; ?wait=30s blocks
//	                                  until its in-flight work ends
//	POST /cluster/undrain/{node}   return it to the ring
//	GET  /metrics                  -> pcfront_* Prometheus exposition
//	GET  /cluster/healthz          -> api.ClusterStatusResponse: the
//	                                  front's routing view joined with
//	                                  every node's own /healthz report
//	GET  /cluster/metrics          -> federated exposition: pcfront's own
//	                                  families plus every healthy
//	                                  backend's /metrics merged (counters
//	                                  summed fleet-wide, gauges per node
//	                                  under a backend label)
//
// Responses report the routing decision in X-Pcfront-* headers only;
// bodies are byte-identical to a direct single-node answer. The one
// exception is opt-in: a request with "trace": true gets its trace
// block rewritten into the stitched cluster tree — the front's route,
// forward, retry, and hedge spans with the backend's own trace nested
// verbatim underneath — and the same tree echoed in the
// X-Pc-Trace-Spans response header (the only trace channel on error
// bodies, which are never rewritten). See docs/CLUSTER.md and
// docs/OBSERVABILITY.md.
//
// Usage:
//
//	pcfront -addr :7080 -backends http://127.0.0.1:7090,http://127.0.0.1:7091,http://127.0.0.1:7092
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":7080", "listen address")
		backends    = flag.String("backends", "", "comma-separated pcserved base URLs (required)")
		vnodes      = flag.Int("vnodes", 64, "ring points per backend")
		probe       = flag.Duration("probe", time.Second, "liveness-probe interval (negative disables)")
		hedgeafter  = flag.Duration("hedgeafter", 50*time.Millisecond, "hedge a silent primary after this long (negative disables)")
		retrybudget = flag.Float64("retrybudget", 64, "token budget shared by 5xx retries and hedges")
		retryrate   = flag.Float64("retryrate", 0.2, "budget tokens credited per request")
		name        = flag.String("name", "pcfront", "instance name reported in the forwarded-hop header")
	)
	flag.Parse()
	if *backends == "" {
		log.Fatal("pcfront: -backends is required")
	}

	front, err := cluster.NewFront(cluster.Config{
		Backends:      strings.Split(*backends, ","),
		VNodes:        *vnodes,
		ProbeInterval: *probe,
		HedgeAfter:    *hedgeafter,
		RetryBudget:   *retrybudget,
		RetryRate:     *retryrate,
		Name:          *name,
	})
	if err != nil {
		log.Fatalf("pcfront: %v", err)
	}
	readHeader, read, idle := server.Timeouts()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           front.Handler(),
		ReadHeaderTimeout: readHeader,
		ReadTimeout:       read,
		IdleTimeout:       idle,
		// WriteTimeout stays 0 for the same reason as pcserved's: stream
		// pass-throughs hold their response open for the stream's whole
		// lifetime.
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
		front.Close()
	}()

	log.Printf("pcfront: listening on %s, fronting %s", *addr, *backends)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("pcfront: %v", err)
	}
	stop()
	<-drained
	log.Printf("pcfront: drained, exiting")
}
