package server

import (
	"encoding/json"
	"io"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/monitor"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// latencyBuckets is the shared log-spaced bucket layout of every
// duration histogram: 3 buckets per decade from 10µs to 10s
// (docs/OBSERVABILITY.md).
func latencyBuckets() []float64 { return telemetry.LogBuckets(1e-5, 10, 3) }

// telemetrySet is the server's metric surface: per-endpoint request
// counters and latency histograms, and per-stage duration histograms
// fed by the same spans callers can opt into seeing — one
// instrumentation source, two consumers.
type telemetrySet struct {
	reg      *telemetry.Registry
	runtime  *telemetry.Runtime
	requests *telemetry.CounterVec
	errors   *telemetry.CounterVec
	latency  *telemetry.HistogramVec
	// stage pre-binds one histogram per catalogued span name, so the
	// per-span observer path is a map lookup plus atomic adds.
	stage map[string]*telemetry.Histogram
}

func newTelemetrySet() *telemetrySet {
	reg := telemetry.NewRegistry()
	buckets := latencyBuckets()
	ts := &telemetrySet{
		reg:     reg,
		runtime: telemetry.NewRuntime("pcserved"),
		requests: reg.NewCounterVec("pcserved_http_requests_total",
			"HTTP requests served, by route pattern.", "endpoint"),
		errors: reg.NewCounterVec("pcserved_http_errors_total",
			"HTTP responses with status >= 400, by route pattern.", "endpoint"),
		latency: reg.NewHistogramVec("pcserved_http_request_duration_seconds",
			"HTTP request latency, by route pattern.", buckets, "endpoint"),
		stage: make(map[string]*telemetry.Histogram),
	}
	stageVec := reg.NewHistogramVec("pcserved_stage_duration_seconds",
		"Per-stage span durations across all requests (docs/OBSERVABILITY.md span catalogue).",
		buckets, "stage")
	for _, name := range telemetry.SpanNames() {
		ts.stage[name] = stageVec.With(name)
	}
	return ts
}

// observeSpan feeds a finished span's duration into its stage
// histogram. Installed as the observer of every request's trace, so
// stage metrics accumulate whether or not the caller asked to see the
// trace. Span names outside the catalogue are dropped rather than
// minting unbounded label values.
func (ts *telemetrySet) observeSpan(sd telemetry.SpanData) {
	if h, ok := ts.stage[sd.Name]; ok {
		h.Observe(sd.Duration)
	}
}

// instrument wraps a handler with the per-endpoint middleware: it
// installs an observed trace in the request context (so every span any
// layer opens lands in the stage histograms) and records the request
// count, error count, and latency under the route's pattern — a
// bounded label, never the raw URL.
func (ts *telemetrySet) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	requests := ts.requests.With(endpoint)
	errCount := ts.errors.With(endpoint)
	latency := ts.latency.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := telemetry.NewObserved(ts.observeSpan)
		r = r.WithContext(telemetry.NewContext(r.Context(), tr))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if r.Header.Get(api.HeaderTrace) != "" {
			// A cluster front marked this hop as traced: echo the span
			// trace in the response header so the front can stitch it —
			// success and error responses alike.
			sw.echoTrace = tr
		}
		h(sw, r)
		requests.Inc()
		if sw.status >= 400 {
			errCount.Inc()
		}
		latency.Observe(time.Since(start))
	}
}

// statusWriter records the response status for the error counter and
// seals the cross-process trace echo. It preserves the streaming
// surface of the underlying writer: Flush keeps /sessions and
// /campaigns NDJSON streams flushing per event, and Unwrap lets
// http.ResponseController reach the deadline controls streamEvents
// uses.
type statusWriter struct {
	http.ResponseWriter
	status      int
	echoTrace   *telemetry.Trace
	wroteHeader bool
}

// WriteHeader emits the response head. When the hop is traced
// (echoTrace set), the trace recorded so far is serialized into the
// X-Pc-Trace-Spans header first — at this point every span except
// encode has been recorded, which is exactly the span set of the
// in-body trace block (the encode span by design cannot appear in the
// body it times), so the two channels agree. The echo rides error
// responses too: their bodies carry no trace block, so the header is
// the only channel a stitching front has.
func (w *statusWriter) WriteHeader(status int) {
	if w.wroteHeader {
		w.ResponseWriter.WriteHeader(status)
		return
	}
	w.wroteHeader = true
	w.status = status
	if w.echoTrace != nil {
		if b, err := json.Marshal(api.TraceInfoFrom(w.echoTrace)); err == nil {
			w.Header().Set(api.HeaderTraceSpans, string(b))
		}
	}
	w.ResponseWriter.WriteHeader(status)
}

// Write backstops handlers that never call WriteHeader explicitly: the
// implicit 200 must still seal the trace header before the first body
// byte reaches the wire.
func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// serveMetrics renders the full Prometheus text exposition: the
// registry families (HTTP and stage metrics observed in-line), then
// the snapshot-derived families — the same service.Stats and registry
// snapshots /healthz renders as JSON, so the two views cannot
// disagree.
func (ts *telemetrySet) serveMetrics(svc *service.Service, reg *monitor.Registry, creg *campaign.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		ts.reg.WritePrometheus(w)
		writeSnapshotMetrics(w, svc.Stats(), reg, creg)
		ts.runtime.Write(telemetry.NewExpo(w))
	}
}

// writeSnapshotMetrics renders one service.Stats snapshot (plus the
// registry gauges) as exposition families, through the same
// telemetry.Expo formatter the registry uses.
func writeSnapshotMetrics(w io.Writer, st service.Stats, reg *monitor.Registry, creg *campaign.Registry) {
	e := telemetry.NewExpo(w)
	label := func(k, v string) telemetry.Annotation { return telemetry.Annotation{Key: k, Value: v} }

	e.Family("pcserved_measure_requests_total", "Measure calls accepted.", "counter")
	e.Sample(float64(st.Requests))
	e.Family("pcserved_analyze_items_total", "Analyze items accepted (batch items, not batches).", "counter")
	e.Sample(float64(st.Analyzes))
	e.Family("pcserved_infer_items_total", "Infer items accepted (batch items, not batches).", "counter")
	e.Sample(float64(st.Infers))

	e.Family("pcserved_plans_total", "Plan requests accepted.", "counter")
	e.Sample(float64(st.Plans))

	// Coalescing across every flight (measure, analyze items, infer
	// items, plans): followers joined an identical in-flight execution,
	// leaders executed.
	e.Family("pcserved_coalesce_total", "In-flight request coalescing outcomes across all endpoints.", "counter")
	e.Sample(float64(st.CoalesceLeaders), label("role", "leader"))
	e.Sample(float64(st.Coalesced), label("role", "follower"))

	e.Family("pcserved_calibration_cache_hits_total", "Calibration-cache lookups served warm.", "counter")
	e.Sample(float64(st.CalibrationHits))
	e.Family("pcserved_calibration_cache_misses_total", "Calibration-cache lookups that computed a calibration.", "counter")
	e.Sample(float64(st.CalibrationMisses))
	e.Family("pcserved_calibration_cache_entries", "Cached calibrations, summed over shards.", "gauge")
	e.Sample(float64(st.Calibrations))

	e.Family("pcserved_engine_runs_total", "Programs executed, by engine.", "counter")
	e.Sample(float64(st.Engines.InterpreterRuns), label("engine", "interpreter"))
	e.Sample(float64(st.Engines.CompiledRuns), label("engine", "compiled"))

	e.Family("pcserved_compile_cache_hits_total", "Compile-cache lookups served warm.", "counter")
	e.Sample(float64(st.Engines.CacheHits))
	e.Family("pcserved_compile_cache_misses_total", "Compile-cache lookups that compiled.", "counter")
	e.Sample(float64(st.Engines.CacheMisses))
	e.Family("pcserved_compile_cache_evictions_total", "Compile-cache entries displaced by capacity.", "counter")
	e.Sample(float64(st.Engines.CacheEvictions))
	e.Family("pcserved_compile_cache_entries", "Compiled programs currently cached.", "gauge")
	e.Sample(float64(st.Engines.CacheSize))
	e.Family("pcserved_compile_cache_capacity", "Compile-cache capacity.", "gauge")
	e.Sample(float64(st.Engines.CacheCapacity))

	e.Family("pcserved_pool_workers", "Pooled worker systems, by shard and state.", "gauge")
	for _, sh := range st.Shards {
		e.Sample(float64(sh.Idle), label("shard", sh.Key), label("state", "idle"))
		e.Sample(float64(sh.InUse), label("shard", sh.Key), label("state", "inuse"))
	}
	e.Family("pcserved_pinned_workers", "Workers held by long-lived holders (sessions, plans).", "gauge")
	e.Sample(float64(st.PinnedWorkers))

	sActive, sRetained := reg.Stats()
	e.Family("pcserved_sessions_active", "Monitoring sessions currently producing.", "gauge")
	e.Sample(float64(sActive))
	e.Family("pcserved_sessions_retained", "Monitoring sessions registered, ended ones included.", "gauge")
	e.Sample(float64(sRetained))

	cActive, cRetained := creg.Stats()
	e.Family("pcserved_campaigns_active", "Validation campaigns currently sweeping.", "gauge")
	e.Sample(float64(cActive))
	e.Family("pcserved_campaigns_retained", "Validation campaigns registered, finished ones included.", "gauge")
	e.Sample(float64(cRetained))
}
