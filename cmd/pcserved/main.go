// Command pcserved serves the measurement apparatus over HTTP: a
// long-running, concurrent front end to the simulated systems of the
// paper, backed by internal/service's sharded worker pools, calibration
// cache, and request coalescing. The route table, registries, and
// telemetry middleware live in internal/server; this command adds
// flags, the listener, and signal-driven graceful drain.
//
// Endpoints:
//
//	POST   /measure              api.MeasureRequest    -> api.MeasureResponse
//	POST   /analyze              api.AnalyzeRequest    -> api.AnalyzeResponse
//	POST   /plan                 api.PlanRequest       -> api.PlanResponse
//	POST   /infer                api.InferRequest      -> api.InferResponse
//	POST   /experiment           api.ExperimentRequest -> api.ExperimentResponse
//	POST   /sessions             api.SessionRequest    -> api.SessionCreated
//	GET    /sessions/{id}        -> api.SessionSnapshot
//	GET    /sessions/{id}/stream -> NDJSON api.StreamEvent lines
//	DELETE /sessions/{id}        -> 204
//	POST   /campaigns            api.CampaignRequest   -> api.CampaignCreated
//	GET    /campaigns/{id}       -> api.CampaignSnapshot
//	GET    /campaigns/{id}/stream -> NDJSON api.CampaignEvent lines
//	DELETE /campaigns/{id}       -> 204
//	GET    /healthz              -> api.HealthResponse
//	GET    /metrics              -> Prometheus text exposition
//	GET    /debug/pprof/*        -> net/http/pprof (behind -pprof)
//
// Responses to /measure, /analyze, and /plan are deterministic:
// identical requests receive byte-identical bodies, no matter how they
// interleave with other traffic. Measurements execute on one of two
// conformance-tested engines — the block-dispatch compiled engine by
// default, or the per-instruction interpreter when a request pins
// "engine":"interpreter" — with byte-identical results either way;
// /healthz reports per-engine run counts and the compile cache next to
// the calibration cache. See docs/ENGINE.md. Every measurement response carries an
// accuracy annotation (a corrected estimate with a confidence
// interval); the batched /analyze endpoint evaluates the full error
// model — overhead subtraction, multiplexing extrapolation, sampling
// quantization, and paired duet measurement. See docs/ACCURACY.md.
//
// The /plan endpoint is the planning layer: callers state an accuracy
// goal and the planner derives a multiplexing schedule and replication
// count that meets it, executes the schedule, and fuses the partial
// observations into estimates never wider than the naive ones. See
// docs/PLANNING.md.
//
// The /infer endpoint is the cross-event inference layer: batched
// joint estimation over the algebraic invariants tying events together
// (internal/bayes), returning posterior estimates whose intervals
// never widen versus the inputs, plus per-invariant consistency
// residuals. See docs/INFERENCE.md.
//
// The /sessions endpoints open continuous monitoring sessions:
// long-lived observers that stream corrected samples, window
// summaries, and drift events over NDJSON. See docs/MONITORING.md.
//
// The /campaigns endpoints run adversarial counter-validation
// campaigns: sweeps of randomized generated programs with analytically
// known ground truth, driven through the measurement, inference, and
// planning paths to attack the service's own models; every failed
// check streams out as an NDJSON finding. See docs/CAMPAIGNS.md.
//
// Observability: every request runs under a telemetry trace feeding
// per-endpoint and per-stage metrics at GET /metrics (Prometheus text
// exposition, derived from the same snapshot as /healthz); requests
// with "trace": true get their span trace echoed in the response, with
// canonical keys and coalescing unchanged. See docs/OBSERVABILITY.md.
//
// Because responses are deterministic, a fleet of pcserved nodes is
// byte-identical to one node; cmd/pcfront consistent-hashes canonical
// request keys across such a fleet. See docs/CLUSTER.md.
//
// Usage:
//
//	pcserved -addr :7090 -workers 4 -calruns 31
//	curl -s localhost:7090/measure -d '{"processor":"K8","stack":"pc","bench":"loop:100000","pattern":"rr","runs":5,"calibrate":true}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/monitor"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":7090", "listen address")
		workers      = flag.Int("workers", 4, "systems pooled per (processor, stack) shard")
		calruns      = flag.Int("calruns", 31, "runs per calibration estimate")
		maxexp       = flag.Int("maxexp", 2, "maximum concurrent experiments")
		maxsessions  = flag.Int("maxsessions", 16, "maximum concurrent monitoring sessions")
		sessionidle  = flag.Duration("sessionidle", 2*time.Minute, "evict monitoring sessions idle this long")
		maxcampaigns = flag.Int("maxcampaigns", campaign.DefaultMaxCampaigns, "maximum concurrent validation campaigns")
		campaignidle = flag.Duration("campaignidle", 2*time.Minute, "evict validation campaigns idle this long")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	node := server.New(server.Config{
		Workers:         *workers,
		CalibrationRuns: *calruns,
		MaxExperiments:  *maxexp,
		Monitor: monitor.Config{
			MaxSessions: *maxsessions,
			IdleTimeout: *sessionidle,
		},
		Campaign: campaign.Config{
			MaxCampaigns: *maxcampaigns,
			IdleTimeout:  *campaignidle,
		},
		Pprof: *pprofOn,
	})
	readHeader, read, idle := server.Timeouts()
	srv := &http.Server{
		Addr:    *addr,
		Handler: node.Handler(),
		// A hostile or stalled client must not hold a connection open
		// while it dribbles in headers or a request body.
		ReadHeaderTimeout: readHeader,
		ReadTimeout:       read,
		IdleTimeout:       idle,
		// WriteTimeout stays 0 deliberately: /sessions/{id}/stream holds
		// its response open for the session's whole lifetime, and a
		// server-wide write deadline would sever every live stream. The
		// non-streaming handlers respond in bounded time anyway; if a
		// per-handler write deadline is ever needed, set it in the
		// handler via http.ResponseController, not here.
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		// node.Close ends every session and campaign with a drained end
		// event first, so Shutdown's wait for in-flight requests can
		// finish instead of hanging on live streams.
		node.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	log.Printf("pcserved: listening on %s (workers/shard=%d, calruns=%d)", *addr, *workers, *calruns)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("pcserved: %v", err)
	}
	// ListenAndServe returns as soon as Shutdown begins; wait for the
	// drain to finish so in-flight requests complete.
	stop()
	<-drained
	log.Printf("pcserved: drained, exiting")
}
