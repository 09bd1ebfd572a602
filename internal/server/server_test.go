package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/monitor"
)

// newTestServer serves the production handler over HTTP.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	node := New(Config{
		Workers:         2,
		CalibrationRuns: 5,
		Monitor:         monitor.Config{SweepInterval: -1},
		Campaign:        campaign.Config{SweepInterval: -1},
	})
	t.Cleanup(node.Close)
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// post sends a JSON body and returns status and response bytes.
func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data
}

func TestMeasureEndpoint(t *testing.T) {
	srv := newTestServer(t)
	status, body := post(t, srv.URL+"/measure", api.MeasureRequest{
		Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr", Runs: 3,
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body = %s", status, body)
	}
	var resp api.MeasureResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Expected != 3001 || len(resp.Errors) != 3 {
		t.Errorf("unexpected response: %s", body)
	}
}

// TestConcurrentMixedRequests is the issue's acceptance scenario: at
// least 2 processor models x 2 stacks in flight simultaneously, every
// configuration's responses byte-identical.
func TestConcurrentMixedRequests(t *testing.T) {
	srv := newTestServer(t)
	reqs := []api.MeasureRequest{
		{Processor: "K8", Stack: "pc", Bench: "loop:800", Pattern: "rr", Runs: 3},
		{Processor: "K8", Stack: "pm", Bench: "loop:800", Pattern: "rr", Runs: 3},
		{Processor: "CD", Stack: "pc", Bench: "loop:800", Pattern: "ao", Runs: 3, Calibrate: true},
		{Processor: "CD", Stack: "PHpm", Bench: "null", Pattern: "ar", Runs: 3},
		{Processor: "PD", Stack: "PLpc", Bench: "array:200", Pattern: "ro", Runs: 3},
	}
	const perReq = 5
	bodies := make([][]string, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		bodies[i] = make([]string, perReq)
		for r := 0; r < perReq; r++ {
			wg.Add(1)
			go func(i, r int) {
				defer wg.Done()
				status, body := post(t, srv.URL+"/measure", reqs[i])
				if status != http.StatusOK {
					t.Errorf("request %d: status %d: %s", i, status, body)
					return
				}
				bodies[i][r] = string(body)
			}(i, r)
		}
	}
	wg.Wait()
	for i := range reqs {
		for r := 1; r < perReq; r++ {
			if bodies[i][r] != bodies[i][0] {
				t.Errorf("request %d: response %d differs from response 0\n%s\nvs\n%s",
					i, r, bodies[i][r], bodies[i][0])
			}
		}
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	srv := newTestServer(t)
	duet := api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "null", Pattern: "rr"}
	req := api.AnalyzeRequest{Items: []api.AnalyzeItem{
		{Measure: api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:10000", Pattern: "rr", Runs: 4}},
		{
			Measure: api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:20000", Pattern: "rr", Runs: 4},
			Duet:    &duet,
		},
	}}
	status, body := post(t, srv.URL+"/analyze", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body = %s", status, body)
	}
	var resp api.AnalyzeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(resp.Results))
	}
	if len(resp.Results[0].Counting) != 1 || resp.Results[0].Calibration == nil {
		t.Errorf("first result missing counting estimate or calibration: %s", body)
	}
	if resp.Results[1].Duet == nil {
		t.Errorf("second result missing duet analysis: %s", body)
	}

	// Byte-identical across repeated identical calls — the service
	// contract pcload's cross-check relies on.
	status2, body2 := post(t, srv.URL+"/analyze", req)
	if status2 != http.StatusOK || string(body) != string(body2) {
		t.Errorf("repeated /analyze diverged (status %d)", status2)
	}

	// Malformed batches are the client's fault.
	status, _ = post(t, srv.URL+"/analyze", api.AnalyzeRequest{})
	if status != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", status)
	}
}

// TestPlanEndpoint drives the acceptance property over the production
// routing: an event set larger than the scheduled counter count plans,
// executes, and fuses; every fused interval is at most its naive
// per-group multiplexed interval; and two identical requests return
// byte-identical plans and estimates.
func TestPlanEndpoint(t *testing.T) {
	srv := newTestServer(t)
	req := api.PlanRequest{
		Measure: api.MeasureRequest{
			Processor: "K8", Stack: "pc", Bench: "array:2000000", Pattern: "rr",
			Events: []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "DCACHE_MISS", "BR_MISP_RETIRED"},
		},
		TargetRelWidth: 0.1,
		Counters:       2,
		PilotRuns:      2,
		MaxRuns:        10,
	}
	status, body := post(t, srv.URL+"/plan", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body = %s", status, body)
	}
	var resp api.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Plan.Mode != "multiplexed" || len(resp.Plan.Groups) != 3 {
		t.Errorf("plan = %+v, want 3 multiplexed groups", resp.Plan)
	}
	if len(resp.Estimates) != 4 {
		t.Fatalf("estimates = %d, want 4", len(resp.Estimates))
	}
	for _, est := range resp.Estimates {
		naiveHalf := (est.Naive.Hi - est.Naive.Lo) / 2
		fusedHalf := (est.Fused.Hi - est.Fused.Lo) / 2
		if fusedHalf > naiveHalf*(1+1e-9) {
			t.Errorf("%s: fused half-width %v exceeds naive %v", est.Event, fusedHalf, naiveHalf)
		}
	}

	status2, body2 := post(t, srv.URL+"/plan", req)
	if status2 != http.StatusOK || string(body) != string(body2) {
		t.Errorf("repeated /plan diverged (status %d)", status2)
	}
}

func TestPlanRejectsInvalid(t *testing.T) {
	srv := newTestServer(t)
	cases := []any{
		api.PlanRequest{Measure: api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "null"}}, // no target
		api.PlanRequest{Measure: api.MeasureRequest{Processor: "Z80", Stack: "pc", Bench: "null"}, TargetRelWidth: 0.1},
		"not json",
	}
	for _, c := range cases {
		status, body := post(t, srv.URL+"/plan", c)
		if status != http.StatusBadRequest {
			t.Errorf("payload %v: status = %d (%s), want 400", c, status, body)
		}
		var e api.Error
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("payload %v: error body not the shared JSON shape: %s", c, body)
		}
	}
}

// TestErrorShapeUniform: every JSON endpoint must emit the same error
// body shape through the shared handler.
func TestErrorShapeUniform(t *testing.T) {
	srv := newTestServer(t)
	for _, path := range []string{"/measure", "/analyze", "/plan", "/experiment", "/sessions"} {
		status, body := post(t, srv.URL+path, "garbage")
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, status)
		}
		var e api.Error
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body = %s, want api.Error shape", path, body)
		}
	}
}

func TestMeasureCarriesAccuracyAnnotation(t *testing.T) {
	srv := newTestServer(t)
	status, body := post(t, srv.URL+"/measure", api.MeasureRequest{
		Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr", Runs: 3, Calibrate: true,
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body = %s", status, body)
	}
	var resp api.MeasureResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if resp.Accuracy == nil {
		t.Fatalf("response carries no accuracy annotation: %s", body)
	}
	if resp.Accuracy.Event != "INSTR_RETIRED" || resp.Accuracy.N != 3 {
		t.Errorf("annotation = %+v", resp.Accuracy)
	}
	// Calibrated request: the annotation must be overhead-corrected.
	if len(resp.Accuracy.Terms) != 1 || resp.Accuracy.Terms[0].Name != "overhead" {
		t.Errorf("annotation terms = %+v, want overhead", resp.Accuracy.Terms)
	}
}

func TestMeasureRejectsInvalid(t *testing.T) {
	srv := newTestServer(t)
	cases := []any{
		api.MeasureRequest{Processor: "Z80", Stack: "pc", Bench: "null"},
		api.MeasureRequest{Processor: "K8", Stack: "PHpc", Bench: "null", Pattern: "rr"},
		"not json at all",
	}
	for _, c := range cases {
		status, body := post(t, srv.URL+"/measure", c)
		if status != http.StatusBadRequest {
			t.Errorf("payload %v: status = %d (%s), want 400", c, status, body)
		}
		var e api.Error
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("payload %v: error body not JSON: %s", c, body)
		}
	}
}

func TestExperimentEndpoint(t *testing.T) {
	srv := newTestServer(t)
	status, body := post(t, srv.URL+"/experiment", api.ExperimentRequest{ID: "table2"})
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	var resp api.ExperimentResponse
	if err := json.Unmarshal(body, &resp); err != nil || !strings.Contains(resp.Title, "Table 2") {
		t.Errorf("unexpected experiment response: %s", body)
	}

	status, _ = post(t, srv.URL+"/experiment", api.ExperimentRequest{ID: "nope"})
	if status != http.StatusBadRequest {
		t.Errorf("unknown experiment: status = %d, want 400", status)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	srv := newTestServer(t)
	req := api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "null", Calibrate: true}
	post(t, srv.URL+"/measure", req)
	post(t, srv.URL+"/measure", req) // warm repeat: cache hit, coalesce-or-replay

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Status != "ok" || len(h.Shards) != 1 || h.Stats.Requests != 2 {
		t.Errorf("unexpected health: %+v", h)
	}
	// The enriched shape: pool occupancy, calibration cache size and
	// hit-rate, session count — all present alongside the old fields.
	if h.Shards[0].InUse != 0 || h.Shards[0].Idle != h.Shards[0].Workers {
		t.Errorf("quiescent pool reports occupancy: %+v", h.Shards[0])
	}
	if h.Calibrations != 1 {
		t.Errorf("calibration cache size = %d, want 1", h.Calibrations)
	}
	if h.CalibrationHitRate <= 0 || h.CalibrationHitRate >= 1 {
		t.Errorf("calibration hit rate = %v, want in (0, 1)", h.CalibrationHitRate)
	}
	if h.ActiveSessions != 0 {
		t.Errorf("active sessions = %d, want 0", h.ActiveSessions)
	}

	// An open monitoring session shows up in the count and occupancy.
	// The interval paces the sampler to wall time so the session is
	// still alive when the next poll lands (a free-running sampler can
	// finish its steps before the HTTP round trip completes).
	status, body := post(t, srv.URL+"/sessions", api.SessionRequest{
		Measure:    api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000"},
		IntervalMS: 50,
	})
	if status != http.StatusCreated {
		t.Fatalf("open session: status %d body %s", status, body)
	}
	var created api.SessionCreated
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("unmarshal session: %v", err)
	}
	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.ActiveSessions != 1 {
		t.Errorf("active sessions = %d, want 1", h.ActiveSessions)
	}
	del, err := http.NewRequest(http.MethodDelete, srv.URL+"/sessions/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(del); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete session: %v, status %v", err, resp.Status)
	}
}

func TestInferEndpoint(t *testing.T) {
	srv := newTestServer(t)
	req := api.InferRequest{Items: []api.InferItem{{
		Inputs: []api.InferInput{
			{Measure: &api.MeasureRequest{
				Processor: "K8", Stack: "pc", Bench: "loop:100000", Pattern: "rr", Runs: 5,
			}},
			{Measure: &api.MeasureRequest{
				Processor: "K8", Stack: "pc", Bench: "loop:100000", Pattern: "rr", Runs: 5,
				Events: []string{"CPU_CLK_UNHALTED"},
			}},
		},
	}}}
	status, body := post(t, srv.URL+"/infer", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body = %s", status, body)
	}
	var resp api.InferResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	res := resp.Results[0]
	if len(res.Posterior) != 2 {
		t.Fatalf("posterior estimates = %d, want 2: %s", len(res.Posterior), body)
	}
	for i, post := range res.Posterior {
		prior := res.Prior[i]
		if post.Hi-post.Lo > (prior.Hi-prior.Lo)*(1+1e-9) {
			t.Errorf("%s: posterior wider than prior", post.Event)
		}
	}
	if len(res.Residuals) == 0 {
		t.Errorf("no residual report: %s", body)
	}

	// Byte-identical repeat over HTTP.
	_, body2 := post(t, srv.URL+"/infer", req)
	if string(body) != string(body2) {
		t.Fatalf("identical /infer requests got different bodies:\n%s\n%s", body, body2)
	}
}

func TestInferRejectsInvalid(t *testing.T) {
	srv := newTestServer(t)
	status, body := post(t, srv.URL+"/infer", api.InferRequest{})
	if status != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, body = %s", status, body)
	}
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("error shape: %s", body)
	}
	status, body = post(t, srv.URL+"/infer", api.InferRequest{Items: []api.InferItem{{
		Inputs: []api.InferInput{{Event: "X", Mean: 1, Variance: -1}},
	}}})
	if status != http.StatusBadRequest {
		t.Errorf("negative variance: status = %d, body = %s", status, body)
	}
}

// TestBodyCap: a body over api.MaxBody gets pcfront's 413 answer, not
// a 400 echoing the oversized field back.
func TestBodyCap(t *testing.T) {
	srv := newTestServer(t)
	body := `{"bench":"` + strings.Repeat("x", api.MaxBody) + `"}`
	resp, err := http.Post(srv.URL+"/measure", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":"request body exceeds 16777216 bytes"}` + "\n"
	if resp.StatusCode != http.StatusRequestEntityTooLarge || string(got) != want {
		t.Fatalf("status %d body %.200q, want 413 %q", resp.StatusCode, got, want)
	}
}
