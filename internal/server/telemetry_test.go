package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/monitor"
	"repro/internal/telemetry"
)

// newPprofTestServer builds the handler with profiling endpoints
// mounted, as `pcserved -pprof` would.
func newPprofTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	node := New(Config{
		Workers:  1,
		Monitor:  monitor.Config{SweepInterval: -1},
		Campaign: campaign.Config{SweepInterval: -1},
		Pprof:    true,
	})
	t.Cleanup(node.Close)
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// stripTraceKey removes the top-level "trace" key from a JSON body and
// re-marshals the rest for byte-level comparison.
func stripTraceKey(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	delete(m, "trace")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("remarshal: %v", err)
	}
	return string(out)
}

// TestTraceOptInEndToEnd exercises the full wire contract on every
// traced endpoint: "trace": true yields a span block, omitting it
// yields none, and stripping the block restores byte-identity with the
// untraced response.
func TestTraceOptInEndToEnd(t *testing.T) {
	srv := newTestServer(t)

	cases := []struct {
		path             string
		untraced, traced any
	}{
		{"/measure",
			api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr", Runs: 3},
			api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr", Runs: 3, Trace: true}},
		{"/analyze",
			api.AnalyzeRequest{Items: []api.AnalyzeItem{{
				Measure: api.MeasureRequest{Processor: "CD", Stack: "pc", Bench: "loop:500", Runs: 4}, MpxCounters: 2}}},
			api.AnalyzeRequest{Items: []api.AnalyzeItem{{
				Measure: api.MeasureRequest{Processor: "CD", Stack: "pc", Bench: "loop:500", Runs: 4}, MpxCounters: 2}},
				Trace: true}},
		{"/plan",
			api.PlanRequest{Measure: api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:400"},
				TargetRelWidth: 0.2, Counters: 2},
			api.PlanRequest{Measure: api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:400"},
				TargetRelWidth: 0.2, Counters: 2, Trace: true}},
		{"/infer",
			api.InferRequest{Items: []api.InferItem{{Processor: "K8", Inputs: []api.InferInput{
				{Event: "INSTR_RETIRED", Mean: 1000, Variance: 100},
				{Event: "CPU_CLK_UNHALTED", Mean: 2000, Variance: 400}}}}},
			api.InferRequest{Items: []api.InferItem{{Processor: "K8", Inputs: []api.InferInput{
				{Event: "INSTR_RETIRED", Mean: 1000, Variance: 100},
				{Event: "CPU_CLK_UNHALTED", Mean: 2000, Variance: 400}}}},
				Trace: true}},
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.path, "/"), func(t *testing.T) {
			status, plain := post(t, srv.URL+tc.path, tc.untraced)
			if status != http.StatusOK {
				t.Fatalf("untraced status = %d, body = %s", status, plain)
			}
			var pm map[string]json.RawMessage
			if err := json.Unmarshal(plain, &pm); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if _, ok := pm["trace"]; ok {
				t.Fatal("untraced response carries a trace block")
			}

			status, traced := post(t, srv.URL+tc.path, tc.traced)
			if status != http.StatusOK {
				t.Fatalf("traced status = %d, body = %s", status, traced)
			}
			var tm struct {
				Trace *api.TraceInfo `json:"trace"`
			}
			if err := json.Unmarshal(traced, &tm); err != nil {
				t.Fatalf("unmarshal traced: %v", err)
			}
			if tm.Trace == nil || len(tm.Trace.Spans) == 0 {
				t.Fatalf("traced response has no spans: %s", traced)
			}
			for _, sp := range tm.Trace.Spans {
				if sp.DurationNs < 0 {
					t.Errorf("span %q has negative duration %d", sp.Name, sp.DurationNs)
				}
			}
			if got, want := stripTraceKey(t, traced), stripTraceKey(t, plain); got != want {
				t.Errorf("responses differ beyond the trace block:\n traced: %s\nuntraced: %s", got, want)
			}
		})
	}
}

// TestMetricsEndpoint scrapes /metrics after some traffic and checks
// the exposition: it passes the exposition lint (HELP and TYPE for
// every sampled family, no duplicate family definitions, parseable
// lines), and the key families are present with plausible values.
func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t)

	// Generate traffic: two measures (one repeated for a calibration
	// hit), one of them erroring.
	ok := api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr", Runs: 3, Calibrate: true}
	post(t, srv.URL+"/measure", ok)
	post(t, srv.URL+"/measure", ok)
	post(t, srv.URL+"/measure", api.MeasureRequest{Processor: "Z80"})

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.LintExposition(bytes.NewReader(text)); err != nil {
		t.Errorf("/metrics fails the exposition lint:\n%v", err)
	}

	samples := make(map[string]float64)
	for _, line := range strings.Split(string(text), "\n") {
		if fields := strings.Fields(line); len(fields) == 2 && !strings.HasPrefix(line, "#") {
			// strconv, not JSON: exposition values include NaN and +Inf
			// (the runtime histograms have no tracked sum).
			samples[fields[0]], _ = strconv.ParseFloat(fields[1], 64)
		}
	}

	for name, want := range map[string]float64{
		`pcserved_http_requests_total{endpoint="/measure"}`: 3,
		`pcserved_http_errors_total{endpoint="/measure"}`:   1,
		"pcserved_measure_requests_total":                   2,
		"pcserved_calibration_cache_hits_total":             1,
		"pcserved_calibration_cache_misses_total":           1,
	} {
		if got := samples[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Stage histograms accumulate even though no request asked for a
	// trace: the observer path is always on.
	if got := samples[`pcserved_stage_duration_seconds_count{stage="engine-run"}`]; got < 2 {
		t.Errorf("engine-run stage count = %v, want >= 2", got)
	}
	if got := samples[`pcserved_http_request_duration_seconds_count{endpoint="/measure"}`]; got != 3 {
		t.Errorf("latency histogram count = %v, want 3", got)
	}
}

// TestHealthzAndMetricsAgree checks the one-source-of-truth satellite:
// the JSON health view and the exposition view render the same
// snapshot counters.
func TestHealthzAndMetricsAgree(t *testing.T) {
	srv := newTestServer(t)
	post(t, srv.URL+"/measure", api.MeasureRequest{
		Processor: "PD", Stack: "pc", Bench: "loop:700", Runs: 3, Calibrate: true})

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	expo, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	find := func(name string) float64 {
		for _, line := range strings.Split(string(expo), "\n") {
			if strings.HasPrefix(line, name+" ") {
				var v float64
				if err := json.Unmarshal([]byte(strings.Fields(line)[1]), &v); err != nil {
					t.Fatalf("parse %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("metric %s not found", name)
		return 0
	}
	if got := find("pcserved_measure_requests_total"); got != float64(h.Stats.Requests) {
		t.Errorf("measure_requests_total = %v, healthz requests = %d", got, h.Stats.Requests)
	}
	if got := find("pcserved_calibration_cache_misses_total"); got != float64(h.Stats.CalibrationMisses) {
		t.Errorf("calibration misses disagree: metrics %v, healthz %d", got, h.Stats.CalibrationMisses)
	}
	if got := find("pcserved_calibration_cache_entries"); got != float64(h.Calibrations) {
		t.Errorf("calibration entries disagree: metrics %v, healthz %d", got, h.Calibrations)
	}
}

// TestPprofGating checks the profiling satellite: /debug/pprof/ serves
// the index only when the flag is on, and 404s by default.
func TestPprofGating(t *testing.T) {
	off := newTestServer(t)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET pprof (off): %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: status = %d, want 404", resp.StatusCode)
	}

	on := newPprofTestServer(t)
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET pprof (on): %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof enabled: status = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index does not list profiles: %s", body)
	}
}

// postTraced posts body with the X-Pc-Trace hop header set, returning
// the status, response body, and the echoed X-Pc-Trace-Spans header.
func postTraced(t *testing.T, url string, req any) (int, []byte, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(api.HeaderTrace, "front-test")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header.Get(api.HeaderTraceSpans)
}

// TestTraceHeaderEcho exercises the cross-process propagation contract:
// a request carrying X-Pc-Trace gets its span trace echoed in the
// X-Pc-Trace-Spans response header, with the same span set as the
// in-body block, while the body itself stays untouched.
func TestTraceHeaderEcho(t *testing.T) {
	srv := newTestServer(t)
	req := api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr", Runs: 3}

	// Hop header + body opt-in: header and body blocks carry the same
	// span set.
	traced := req
	traced.Trace = true
	status, body, hdr := postTraced(t, srv.URL+"/measure", traced)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body = %s", status, body)
	}
	if hdr == "" {
		t.Fatal("no X-Pc-Trace-Spans header on traced hop")
	}
	var fromHeader api.TraceInfo
	if err := json.Unmarshal([]byte(hdr), &fromHeader); err != nil {
		t.Fatalf("header does not parse as a trace block: %v\n%s", err, hdr)
	}
	var tm struct {
		Trace *api.TraceInfo `json:"trace"`
	}
	if err := json.Unmarshal(body, &tm); err != nil || tm.Trace == nil {
		t.Fatalf("no in-body trace block: %v %s", err, body)
	}
	if got, want := fromHeader.Shape(), tm.Trace.Shape(); got != want {
		t.Errorf("header and body span sets differ:\nheader %s\n  body %s", got, want)
	}

	// Hop header alone: body stays byte-identical to a plain response
	// (no trace block), spans ride the header only.
	status, hopBody, hdr := postTraced(t, srv.URL+"/measure", req)
	if status != http.StatusOK || hdr == "" {
		t.Fatalf("hop-only: status = %d, header = %q", status, hdr)
	}
	var pm map[string]json.RawMessage
	if err := json.Unmarshal(hopBody, &pm); err != nil {
		t.Fatal(err)
	}
	if _, ok := pm["trace"]; ok {
		t.Error("hop header alone injected a trace block into the body")
	}

	// No hop header: no echo.
	resp, err := http.Post(srv.URL+"/measure", "application/json",
		strings.NewReader(`{"processor":"K8","stack":"pc","bench":"loop:1000","pattern":"rr","runs":3}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if h := resp.Header.Get(api.HeaderTraceSpans); h != "" {
		t.Errorf("untraced hop echoed spans: %q", h)
	}
}

// TestTraceHeaderEchoOnError is the error-path half of the contract:
// the echo must ride error responses too, because their bodies carry no
// trace block.
func TestTraceHeaderEchoOnError(t *testing.T) {
	srv := newTestServer(t)
	status, body, hdr := postTraced(t, srv.URL+"/measure", api.MeasureRequest{Processor: "Z80"})
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, body = %s", status, body)
	}
	if hdr == "" {
		t.Fatal("error response dropped the X-Pc-Trace-Spans header")
	}
	var info api.TraceInfo
	if err := json.Unmarshal([]byte(hdr), &info); err != nil {
		t.Fatalf("header does not parse: %v\n%s", err, hdr)
	}
	// The request parsed before validation failed, so the parse span
	// must be present.
	found := false
	for _, sp := range info.Spans {
		if sp.Name == "parse" {
			found = true
		}
	}
	if !found {
		t.Errorf("error trace lacks the parse span: %+v", info.Spans)
	}
	// The error body itself is untouched: the standard error shape.
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("error body not the standard shape: %s", body)
	}
}

// TestRuntimeMetricsExposed checks the runtime self-metrics satellite:
// /metrics carries the shared runtime families under the pcserved
// prefix.
func TestRuntimeMetricsExposed(t *testing.T) {
	srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := string(expo)
	for _, want := range []string{
		"# TYPE pcserved_go_goroutines gauge",
		"# TYPE pcserved_go_heap_objects_bytes gauge",
		"# TYPE pcserved_go_gc_pause_seconds histogram",
		"# TYPE pcserved_go_sched_latency_seconds histogram",
		"pcserved_build_info{go_version=",
		"# TYPE pcserved_uptime_seconds gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
