package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/monitor"
	"repro/internal/server"
)

// newNode builds one real pcserved node in process and serves it.
func newNode(t *testing.T) *httptest.Server {
	t.Helper()
	node := server.New(server.Config{
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

// newFlakyNode serves a real node but breaks determinism on purpose:
// every third successful answer has the first digit of each line
// bumped (9 becomes 8, so the JSON stays valid), so identical requests
// get different bodies.
func newFlakyNode(t *testing.T) string {
	node := newNode(t)
	var mu sync.Mutex
	answered := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		node.Config.Handler.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		mu.Lock()
		if rec.Code == http.StatusOK {
			answered++
		}
		flip := rec.Code == http.StatusOK && answered%3 == 0
		mu.Unlock()
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			if i := bytes.IndexAny(line, "0123456789"); flip && i >= 0 {
				if line[i] == '9' {
					line[i] = '8'
				} else {
					line[i]++
				}
			}
		}
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// load runs a workload that must pass and returns its report.
func load(t *testing.T, o options) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatalf("run %+v: %v\noutput:\n%s", o, err, out.String())
	}
	return out.String()
}

// wantLines fails unless the report contains every line fragment.
func wantLines(t *testing.T, report string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

// rejects asserts a workload fails before or while running.
func rejects(t *testing.T, why string, o options) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, o); err == nil {
		t.Errorf("%s accepted:\n%s", why, out.String())
	}
}

func TestBuildPlan(t *testing.T) {
	m, err := measureMode(options{mix: "K8/pc,CD/PHpm", n: 40, runs: 3, seeds: 4, calibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.waves[0]) != 40 {
		t.Fatalf("plan size = %d, want 40", len(m.waves[0]))
	}
	colds := 0
	for _, s := range m.waves[0] {
		if s.cold {
			colds++
		}
		if bytes.Contains(s.body, []byte(`"stack":"PH`)) && bytes.Contains(s.body, []byte(`"pattern":"r`)) {
			t.Errorf("PH stack assigned an unsupported pattern: %s", s.body)
		}
		if !bytes.Contains(s.body, []byte(`"calibrate":true`)) {
			t.Errorf("calibrate flag not propagated: %s", s.body)
		}
	}
	// Cold marks follow the server's calibration identity: one per
	// distinct (config, pattern) pair in the plan. K8/pc cycles all
	// four patterns; CD/PHpm's rr/ro are clamped to ar, leaving ar/ao.
	if colds != 6 {
		t.Errorf("cold requests = %d, want one per (config, pattern) = 6", colds)
	}
	if _, err := measureMode(options{mix: "garbage", n: 10, runs: 1, seeds: 1}); err == nil {
		t.Error("bad mix accepted")
	}
}

func TestBuildPlanAnalyze(t *testing.T) {
	m, err := measureMode(options{workload: "analyze", mix: "K8/pc", n: 8, runs: 2, seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	var duets, mpxs, samps int
	for _, s := range m.waves[0] {
		if s.path != "/analyze" {
			t.Fatalf("analyze shot not wrapped: %s %s", s.path, s.body)
		}
		duets += bytes.Count(s.body, []byte(`"duet":`))
		mpxs += bytes.Count(s.body, []byte(`"mpxCounters":`))
		samps += bytes.Count(s.body, []byte(`"samplingPeriod":`))
	}
	if duets == 0 || mpxs == 0 || samps == 0 {
		t.Errorf("analyze rotation incomplete: duets=%d mpx=%d sampling=%d", duets, mpxs, samps)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	base := options{addr: "http://x", mix: "K8/pc", n: 4, c: 2, runs: 1, seeds: 1}
	for why, edit := range map[string]func(*options){
		"-c 0 (would hang forever)": func(o *options) { o.c = 0 },
		"-seeds 0 (would panic)":    func(o *options) { o.seeds = 0 },
		"negative -n":               func(o *options) { o.n = -1 },
		"bad mix":                   func(o *options) { o.mix = "garbage" },
		"unknown workload":          func(o *options) { o.workload = "bogus" },
	} {
		o := base
		edit(&o)
		rejects(t, why, o)
	}
}

func TestRunAgainstBackend(t *testing.T) {
	srv := newNode(t)
	report := load(t, options{addr: srv.URL, mix: "K8/pc,K8/pm,CD/pc,CD/PHpm", n: 32, c: 4, runs: 2, seeds: 4, calibrate: true})
	wantLines(t, report, "requests:    32 (0 failed)", "throughput:", "latency:", "determinism:", "cold (", "warm (", "encode share:")
}

func TestRunAnalyzeAgainstBackend(t *testing.T) {
	srv := newNode(t)
	// 16 requests cycle the full model rotation (plain, duet, mpx,
	// sampling) on two shards; the determinism cross-check applies to
	// /analyze bodies exactly as to /measure.
	report := load(t, options{workload: "analyze", addr: srv.URL, mix: "K8/pc,CD/pc", n: 16, c: 4, runs: 2, seeds: 4})
	wantLines(t, report, "determinism:")
}

func TestReportLatencyLine(t *testing.T) {
	d := []time.Duration{4 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	got := summarizeLatency(d).String()
	if !strings.Contains(got, "p50=2ms") || !strings.Contains(got, "max=4ms") {
		t.Errorf("summary = %q", got)
	}
}

func TestRunMonitorAgainstBackend(t *testing.T) {
	srv := newNode(t)
	// Four sessions = two identical pairs; the cross-check must see
	// every pair stream the same series.
	report := load(t, options{workload: "monitor", addr: srv.URL, mix: "K8/pc,CD/pc", n: 4, c: 2, steps: 24, window: 8})
	wantLines(t, report, "sessions:    4 (0 failed, 0 ended early)", "samples:     96 streamed", "latency:", "stream:", "determinism: 2 distinct configs")
}

func TestRunMonitorRejectsBadFlags(t *testing.T) {
	base := options{workload: "monitor", addr: "http://x", mix: "K8/pc", n: 4, c: 2, steps: 8, window: 4}
	for why, edit := range map[string]func(*options){
		"-c 0":    func(o *options) { o.c = 0 },
		"-n 0":    func(o *options) { o.n = 0 },
		"bad mix": func(o *options) { o.mix = "garbage" },
	} {
		o := base
		edit(&o)
		rejects(t, why, o)
	}
}

// TestViolationsFailTheRun drives every workload family against a
// deliberately nondeterministic node: each must exit non-zero and print
// the determinism violation. The -engine case repeats every
// configuration, so it also proves repeats on one engine are compared.
func TestViolationsFailTheRun(t *testing.T) {
	flaky := newFlakyNode(t)
	front, _, _ := newClusterFleet(t, 2)
	for name, o := range map[string]options{
		"request/response": {addr: flaky, mix: "K8/pc", n: 20, runs: 1, seeds: 1},
		"engine":           {workload: "engine", addr: flaky, mix: "K8/pc", n: 32, runs: 1, seeds: 1},
		"stream":           {workload: "monitor", addr: flaky, mix: "K8/pc", n: 4, steps: 4, window: 2},
		"cluster":          {workload: "cluster", addr: front, direct: flaky, mix: "K8/pc", n: 4, runs: 1},
		"trace":            {workload: "trace", addr: flaky, mix: "K8/pc", n: 2, runs: 1},
	} {
		o.c = 1
		var out bytes.Buffer
		if err := run(&out, o); err == nil || !strings.Contains(out.String(), "DETERMINISM VIOLATION") {
			t.Errorf("%s: err=%v, want a determinism violation:\n%s", name, err, out.String())
		}
	}
}

// TestRepeatDivergenceOnOneEngine is the -engine bugfix: two answers
// for one engine that differ fail the run even when the last answers of
// both engines agree.
func TestRepeatDivergenceOnOneEngine(t *testing.T) {
	m, err := engineMode(options{mix: "K8/pc", n: 1, runs: 1, seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	answer := func(s shot, runs string) outcome {
		return outcome{shot: s, status: http.StatusOK, body: []byte(`{"request":{"runs":` + runs + `}}`)}
	}
	interp, compiled := m.waves[0][0], m.waves[0][1]
	outs := []outcome{answer(interp, "1"), answer(compiled, "1"), answer(interp, "2"), answer(interp, "1")}
	var out bytes.Buffer
	if err := m.report(&out, outs, time.Second); err == nil || !strings.Contains(out.String(), "DETERMINISM VIOLATION") {
		t.Fatalf("repeat divergence passed: %v\n%s", err, out.String())
	}
}

// TestFailuresFailTheRun: a transport failure, a non-200 answer, and a
// stream that closes without an end event each fail the run.
func TestFailuresFailTheRun(t *testing.T) {
	srv := newNode(t)
	rejects(t, "transport failure", options{addr: "http://127.0.0.1:1", mix: "K8/pc", n: 1, c: 1, runs: 1, seeds: 1})
	rejects(t, "non-200 answer", options{addr: srv.URL, mix: "Z80/pc", n: 1, c: 1, runs: 1, seeds: 1})
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(map[string]string{"id": "s1"})
			return
		}
		w.Write([]byte(`{"type":"sample"}` + "\n"))
	}))
	defer endless.Close()
	rejects(t, "stream without an end event", options{workload: "monitor", addr: endless.URL, mix: "K8/pc", n: 2, c: 1})
}
