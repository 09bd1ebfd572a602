package service

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
)

// respBytes marshals a response for byte-level comparison.
func respBytes(t *testing.T, resp *api.MeasureResponse) string {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// measure runs one request and fails the test on error.
func measure(t *testing.T, s *Service, req api.MeasureRequest) *api.MeasureResponse {
	t.Helper()
	resp, err := s.Measure(context.Background(), req)
	if err != nil {
		t.Fatalf("Measure(%+v): %v", req, err)
	}
	return resp
}

func TestMeasureBasic(t *testing.T) {
	s := New(Config{WorkersPerShard: 1})
	resp := measure(t, s, api.MeasureRequest{
		Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr", Runs: 3,
	})
	if resp.Expected != 3001 {
		t.Errorf("expected count = %d, want 3001 (1+3*1000)", resp.Expected)
	}
	if len(resp.Errors) != 3 || len(resp.Deltas) != 3 {
		t.Errorf("got %d errors, %d delta rows, want 3 each", len(resp.Errors), len(resp.Deltas))
	}
	if resp.Summary.Min > resp.Summary.Max {
		t.Errorf("summary min %d > max %d", resp.Summary.Min, resp.Summary.Max)
	}
	if resp.Request.Mode != "user" || resp.Request.Seed != api.DefaultSeed {
		t.Errorf("normalization not echoed: %+v", resp.Request)
	}
}

func TestMeasureRejectsBadRequests(t *testing.T) {
	s := New(Config{})
	bad := []api.MeasureRequest{
		{Processor: "Z80", Stack: "pc", Bench: "null"},
		{Processor: "K8", Stack: "bogus", Bench: "null"},
		{Processor: "K8", Stack: "pc", Bench: "loop:x"},
		{Processor: "K8", Stack: "pc", Bench: "null", Pattern: "zz"},
		{Processor: "K8", Stack: "pc", Bench: "null", Mode: "hyper"},
		{Processor: "K8", Stack: "pc", Bench: "null", Opt: 9},
		{Processor: "K8", Stack: "pc", Bench: "null", Runs: -1},
		{Processor: "K8", Stack: "PHpc", Bench: "null", Pattern: "rr"}, // unsupported pattern
	}
	for _, req := range bad {
		if _, err := s.Measure(context.Background(), req); err == nil {
			t.Errorf("Measure(%+v) succeeded, want error", req)
		}
	}
}

// TestConcurrentSameShardDeterministic is the issue's core acceptance
// property: concurrent requests on the same (processor, stack) shard
// return byte-identical results, no matter which pooled worker serves
// them or how execution interleaves with other traffic on the shard.
func TestConcurrentSameShardDeterministic(t *testing.T) {
	s := New(Config{WorkersPerShard: 3})
	ctx := context.Background()

	// Reference responses computed on a quiet service.
	ref := New(Config{WorkersPerShard: 1})
	reqs := []api.MeasureRequest{
		{Processor: "K8", Stack: "pc", Bench: "loop:500", Pattern: "rr", Runs: 4, Seed: 7},
		{Processor: "K8", Stack: "pc", Bench: "loop:2000", Pattern: "ar", Runs: 4, Seed: 9},
		{Processor: "K8", Stack: "pc", Bench: "null", Pattern: "ao", Runs: 4, Calibrate: true},
		{Processor: "K8", Stack: "pc", Bench: "array:300", Pattern: "ro", Runs: 4, Events: []string{"CPU_CLK_UNHALTED"}},
	}
	want := make([]string, len(reqs))
	for i, req := range reqs {
		want[i] = respBytes(t, measure(t, ref, req))
	}

	const rounds = 8
	var wg sync.WaitGroup
	got := make([][]string, len(reqs))
	for i := range reqs {
		got[i] = make([]string, rounds)
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(i, r int) {
				defer wg.Done()
				resp, err := s.Measure(ctx, reqs[i])
				if err != nil {
					t.Errorf("concurrent Measure: %v", err)
					return
				}
				b, err := json.Marshal(resp)
				if err != nil {
					t.Errorf("marshal: %v", err)
					return
				}
				got[i][r] = string(b)
			}(i, r)
		}
	}
	wg.Wait()

	for i := range reqs {
		for r := 0; r < rounds; r++ {
			if got[i][r] != want[i] {
				t.Errorf("request %d round %d: response diverged from quiet-service reference\ngot  %s\nwant %s",
					i, r, got[i][r], want[i])
			}
		}
	}
}

// TestMixedShardsConcurrent drives 2 processors x 2 stacks in flight
// simultaneously and checks each configuration stays deterministic.
func TestMixedShardsConcurrent(t *testing.T) {
	s := New(Config{WorkersPerShard: 2})
	ctx := context.Background()
	reqs := []api.MeasureRequest{
		{Processor: "K8", Stack: "pc", Bench: "loop:400", Pattern: "rr", Runs: 3},
		{Processor: "K8", Stack: "pm", Bench: "loop:400", Pattern: "rr", Runs: 3},
		{Processor: "CD", Stack: "pc", Bench: "loop:400", Pattern: "rr", Runs: 3},
		{Processor: "CD", Stack: "PHpm", Bench: "loop:400", Pattern: "ar", Runs: 3},
	}

	type result struct {
		idx  int
		body string
	}
	const perReq = 6
	results := make(chan result, len(reqs)*perReq)
	var wg sync.WaitGroup
	for i := range reqs {
		for r := 0; r < perReq; r++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := s.Measure(ctx, reqs[i])
				if err != nil {
					t.Errorf("Measure: %v", err)
					return
				}
				b, _ := json.Marshal(resp)
				results <- result{i, string(b)}
			}(i)
		}
	}
	wg.Wait()
	close(results)

	first := make(map[int]string)
	for res := range results {
		if prev, ok := first[res.idx]; !ok {
			first[res.idx] = res.body
		} else if prev != res.body {
			t.Errorf("request %d: divergent concurrent responses", res.idx)
		}
	}
	if len(first) != len(reqs) {
		t.Fatalf("got results for %d configurations, want %d", len(first), len(reqs))
	}

	h := s.Health()
	if len(h.Shards) != 4 {
		t.Errorf("got %d shards, want 4", len(h.Shards))
	}
}

// TestCalibrationCacheWarm checks the second calibrated request hits
// the cache rather than re-running calibration.
func TestCalibrationCacheWarm(t *testing.T) {
	s := New(Config{WorkersPerShard: 2, CalibrationRuns: 9})
	req := api.MeasureRequest{
		Processor: "CD", Stack: "pc", Bench: "loop:100", Pattern: "rr", Runs: 2, Calibrate: true,
	}
	r1 := measure(t, s, req)
	if s.calMisses.Load() != 1 || s.calHits.Load() != 0 {
		t.Fatalf("after cold request: misses=%d hits=%d, want 1/0", s.calMisses.Load(), s.calHits.Load())
	}
	if r1.Calibration == nil || r1.Calibration.Samples != 9 {
		t.Fatalf("cold calibration not reported: %+v", r1.Calibration)
	}

	req.Seed = 99 // different measurement, same calibration configuration
	r2 := measure(t, s, req)
	if s.calMisses.Load() != 1 || s.calHits.Load() != 1 {
		t.Errorf("after warm request: misses=%d hits=%d, want 1/1", s.calMisses.Load(), s.calHits.Load())
	}
	if r1.Calibration.Offset != r2.Calibration.Offset {
		t.Errorf("calibration offset changed between requests: %v vs %v",
			r1.Calibration.Offset, r2.Calibration.Offset)
	}
	if len(r2.CalibratedErrors) != 2 {
		t.Errorf("calibrated errors missing: %+v", r2.CalibratedErrors)
	}

	// A different pattern needs its own calibration entry.
	req.Pattern = "ar"
	measure(t, s, req)
	if s.calMisses.Load() != 2 {
		t.Errorf("distinct configuration did not calibrate: misses=%d", s.calMisses.Load())
	}
}

// TestCalibrationConcurrentSingleCompute checks that many concurrent
// cold calibrated requests compute the calibration exactly once.
func TestCalibrationConcurrentSingleCompute(t *testing.T) {
	s := New(Config{WorkersPerShard: 2, CalibrationRuns: 7})
	req := api.MeasureRequest{
		Processor: "K8", Stack: "pm", Bench: "null", Pattern: "rr", Runs: 1, Calibrate: true,
	}
	var wg sync.WaitGroup
	offsets := make([]float64, 12)
	for i := range offsets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds defeat request coalescing, so each goroutine
			// truly executes and needs the calibration.
			r := req
			r.Seed = uint64(i + 1)
			resp, err := s.Measure(context.Background(), r)
			if err != nil {
				t.Errorf("Measure: %v", err)
				return
			}
			offsets[i] = resp.Calibration.Offset
		}(i)
	}
	wg.Wait()
	if s.calMisses.Load() != 1 {
		t.Errorf("calibration computed %d times, want 1", s.calMisses.Load())
	}
	for i, off := range offsets {
		if off != offsets[0] {
			t.Errorf("offset[%d] = %v diverges from %v", i, off, offsets[0])
		}
	}
}

// TestCoalescing checks identical concurrent requests share one
// execution.
func TestCoalescing(t *testing.T) {
	s := New(Config{WorkersPerShard: 1})
	req := api.MeasureRequest{
		Processor: "PD", Stack: "pc", Bench: "loop:5000", Pattern: "rr", Runs: 8,
	}
	const n = 16
	bodies := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Measure(context.Background(), req)
			if err != nil {
				t.Errorf("Measure: %v", err)
				return
			}
			b, _ := json.Marshal(resp)
			bodies[i] = string(b)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("coalesced body %d diverges", i)
		}
	}
	st := s.Stats()
	if st.Coalesced == 0 {
		t.Log("no requests coalesced (all executions missed each other); determinism still verified")
	}
	if st.Requests != n {
		t.Errorf("requests counter = %d, want %d", st.Requests, n)
	}
	if st.CoalesceLeaders+st.Coalesced != n {
		t.Errorf("leaders(%d)+followers(%d) != %d requests", st.CoalesceLeaders, st.Coalesced, n)
	}
}

// TestPooledWorkerMatchesFreshSystem checks history-independence
// directly: a worker that has served arbitrary traffic measures
// byte-identically to a brand new service.
func TestPooledWorkerMatchesFreshSystem(t *testing.T) {
	dirty := New(Config{WorkersPerShard: 1})
	// Dirty the single worker with varied traffic, including cycle
	// counting (which accumulates fractional state) and calibration.
	for _, warm := range []api.MeasureRequest{
		{Processor: "CD", Stack: "PLpc", Bench: "loop:777", Pattern: "rr", Runs: 3, Events: []string{"CPU_CLK_UNHALTED"}},
		{Processor: "CD", Stack: "PLpc", Bench: "array:200", Pattern: "ao", Runs: 2, Calibrate: true},
		{Processor: "CD", Stack: "PLpc", Bench: "null", Pattern: "ar", Runs: 5, Mode: "user+kernel"},
	} {
		measure(t, dirty, warm)
	}

	probe := api.MeasureRequest{
		Processor: "CD", Stack: "PLpc", Bench: "loop:1234", Pattern: "rr", Runs: 5,
		Events: []string{"CPU_CLK_UNHALTED"}, Seed: 42,
	}
	fresh := New(Config{WorkersPerShard: 1})
	got := respBytes(t, measure(t, dirty, probe))
	want := respBytes(t, measure(t, fresh, probe))
	if got != want {
		t.Errorf("dirty worker diverges from fresh system\ngot  %s\nwant %s", got, want)
	}
}

// TestCoalescedJoinerSurvivesLeaderCancel pins the coalescing retry:
// when the leader's client cancels mid-execution, joined callers with
// live contexts must retry (becoming leader) rather than inherit the
// stranger's cancellation.
func TestCoalescedJoinerSurvivesLeaderCancel(t *testing.T) {
	s := New(Config{WorkersPerShard: 1})
	req := api.MeasureRequest{
		Processor: "K8", Stack: "pc", Bench: "loop:20000", Pattern: "rr", Runs: 300,
	}

	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := s.Measure(leaderCtx, req)
		leaderDone <- err
	}()
	// Wait for the leader's call to be in flight.
	for i := 0; i < 2000; i++ {
		if s.flight.Len() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	joinDone := make(chan error, 1)
	go func() {
		_, err := s.Measure(context.Background(), req)
		joinDone <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the joiner coalesce
	cancel()

	if err := <-joinDone; err != nil {
		t.Errorf("joiner with live context failed after leader cancel: %v", err)
	}
	// The leader either got canceled or finished first; both are fine,
	// anything else is a bug.
	if err := <-leaderDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("leader error = %v, want nil or context.Canceled", err)
	}
}

func TestExperimentRunsBounded(t *testing.T) {
	s := New(Config{})
	_, err := s.Experiment(context.Background(), api.ExperimentRequest{ID: "table2", Runs: api.MaxExperimentRuns + 1})
	if !errors.Is(err, api.ErrBadRequest) {
		t.Errorf("oversized experiment runs: err = %v, want ErrBadRequest", err)
	}
}

func TestExperiment(t *testing.T) {
	s := New(Config{})
	resp, err := s.Experiment(context.Background(), api.ExperimentRequest{ID: "table2"})
	if err != nil {
		t.Fatalf("Experiment: %v", err)
	}
	if resp.Title == "" || resp.Text == "" {
		t.Errorf("empty experiment response: %+v", resp)
	}
	if _, err := s.Experiment(context.Background(), api.ExperimentRequest{ID: "nope"}); err == nil {
		t.Error("unknown experiment succeeded, want error")
	}
}

func TestHealth(t *testing.T) {
	s := New(Config{WorkersPerShard: 2})
	measure(t, s, api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "null"})
	h := s.Health()
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if len(h.Shards) != 1 || h.Shards[0].Workers != 2 || h.Shards[0].Idle != 2 {
		t.Errorf("shard health = %+v", h.Shards)
	}
	if h.Stats.Requests != 1 {
		t.Errorf("requests = %d, want 1", h.Stats.Requests)
	}
}
