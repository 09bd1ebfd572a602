package service

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/bayes"
)

func TestInferRawSumConstraint(t *testing.T) {
	svc := New(Config{WorkersPerShard: 1})
	req := api.InferRequest{Items: []api.InferItem{{
		Inputs: []api.InferInput{
			{Event: "TOTAL", Mean: 1480, Variance: 900},
			{Event: "A", Mean: 1010, Variance: 400},
			{Event: "B", Mean: 505, Variance: 625},
		},
		Constraints: []api.InferConstraint{{
			Name: "decompose",
			Terms: []bayes.Term{
				{Event: "TOTAL", Coef: 1}, {Event: "A", Coef: -1}, {Event: "B", Coef: -1},
			},
			Op: bayes.OpEq, RHS: 0,
		}},
	}}}
	resp, err := svc.Infer(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Results[0]
	if len(res.Posterior) != 3 || len(res.Prior) != 3 {
		t.Fatalf("got %d posterior / %d prior estimates, want 3/3", len(res.Posterior), len(res.Prior))
	}
	for i, post := range res.Posterior {
		prior := res.Prior[i]
		if post.Hi-post.Lo > prior.Hi-prior.Lo {
			t.Errorf("%s: posterior interval wider than prior: [%v,%v] vs [%v,%v]",
				post.Event, post.Lo, post.Hi, prior.Lo, prior.Hi)
		}
		if post.StdErr >= prior.StdErr {
			t.Errorf("%s: equality constraint must strictly tighten (%v >= %v)",
				post.Event, post.StdErr, prior.StdErr)
		}
	}
	if got := res.Posterior[0].Corrected - res.Posterior[1].Corrected - res.Posterior[2].Corrected; abs(got) > 1e-6 {
		t.Errorf("posterior violates decompose by %v", got)
	}
	if res.Tightening <= 0 {
		t.Errorf("tightening = %v, want positive", res.Tightening)
	}
	if !res.Consistent {
		t.Errorf("consistent inputs flagged inconsistent: %+v", res.Residuals)
	}
	// The correction is recorded as a named term, like every other
	// correction layer.
	foundTerm := false
	for _, term := range res.Posterior[0].Terms {
		if term.Name == "constraint-fusion" {
			foundTerm = true
		}
	}
	if !foundTerm {
		t.Errorf("posterior carries no constraint-fusion term: %+v", res.Posterior[0].Terms)
	}
}

func TestInferMeasuredInputsWithLibrary(t *testing.T) {
	svc := New(Config{WorkersPerShard: 1, CalibrationRuns: 9})
	measure := func(event string) api.InferInput {
		return api.InferInput{Measure: &api.MeasureRequest{
			Processor: "K8", Stack: "pc", Bench: "loop:100000", Pattern: "rr",
			Runs: 6, Events: []string{event},
		}}
	}
	req := api.InferRequest{Items: []api.InferItem{{
		Inputs: []api.InferInput{
			measure("INSTR_RETIRED"),
			measure("CPU_CLK_UNHALTED"),
			measure("BR_MISP_RETIRED"),
		},
	}}}
	resp, err := svc.Infer(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Results[0]
	if res.Item.Processor != "K8" {
		t.Errorf("processor not inherited: %q", res.Item.Processor)
	}
	for i, post := range res.Posterior {
		prior := res.Prior[i]
		if post.Hi-post.Lo > (prior.Hi-prior.Lo)*(1+1e-9) {
			t.Errorf("%s: posterior wider than prior", post.Event)
		}
		if prior.N < 2 {
			t.Errorf("%s: measured prior has N=%d, want the run count", prior.Event, prior.N)
		}
	}
	// Real measurements of a consistent system must not trip the
	// invariant residuals.
	if !res.Consistent {
		t.Errorf("measured inputs flagged inconsistent: %+v", res.Residuals)
	}
	if len(res.Residuals) == 0 {
		t.Error("library produced no residual report")
	}

	// Byte-identical repeat: the determinism contract /infer shares with
	// every other endpoint.
	again, err := svc.Infer(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(resp)
	b2, _ := json.Marshal(again)
	if string(b1) != string(b2) {
		t.Fatalf("repeated identical /infer bodies differ:\n%s\n%s", b1, b2)
	}
}

func TestInferFlagsInconsistentInputs(t *testing.T) {
	svc := New(Config{WorkersPerShard: 1})
	// ITLB misses wildly above i-cache misses: impossible on the
	// simulated ISA, so the library residual must flag it.
	req := api.InferRequest{Items: []api.InferItem{{
		Processor: "K8",
		Inputs: []api.InferInput{
			{Event: "ITLB_MISS", Mean: 5000, Variance: 100},
			{Event: "ICACHE_MISS", Mean: 50, Variance: 100},
		},
	}}}
	resp, err := svc.Infer(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Results[0]
	if res.Consistent {
		t.Fatalf("gross invariant violation not flagged: %+v", res.Residuals)
	}
	violated := false
	for _, r := range res.Residuals {
		if r.Constraint == "itlb-le-icache" && r.Violated {
			violated = true
		}
	}
	if !violated {
		t.Errorf("itlb-le-icache not among violated residuals: %+v", res.Residuals)
	}
	// The projection still reconciles the posterior with the invariant.
	if res.Posterior[0].Corrected > res.Posterior[1].Corrected+1e-6 {
		t.Errorf("posterior still violates: %v > %v", res.Posterior[0].Corrected, res.Posterior[1].Corrected)
	}
}

func TestInferRejectsBadCombination(t *testing.T) {
	svc := New(Config{WorkersPerShard: 1})
	// Two copies of the same equality are linearly dependent: a request
	// fault, reported as such.
	c := api.InferConstraint{
		Terms: []bayes.Term{{Event: "X", Coef: 1}, {Event: "Y", Coef: -1}},
		Op:    bayes.OpEq, RHS: 0,
	}
	c2 := c
	c2.Terms = []bayes.Term{{Event: "X", Coef: 2}, {Event: "Y", Coef: -2}}
	req := api.InferRequest{Items: []api.InferItem{{
		Inputs: []api.InferInput{
			{Event: "X", Mean: 1, Variance: 1},
			{Event: "Y", Mean: 2, Variance: 1},
		},
		Constraints: []api.InferConstraint{c, c2},
	}}}
	if _, err := svc.Infer(context.Background(), req); err == nil {
		t.Fatal("dependent equalities accepted")
	}
}

func TestInferCoalescesConcurrentIdenticalItems(t *testing.T) {
	svc := New(Config{WorkersPerShard: 1, CalibrationRuns: 5})
	req := api.InferRequest{Items: []api.InferItem{{
		Inputs: []api.InferInput{{Measure: &api.MeasureRequest{
			Processor: "K8", Stack: "pc", Bench: "loop:50000", Runs: 4,
		}}},
	}}}
	const callers = 8
	var wg sync.WaitGroup
	bodies := make([]string, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := svc.Infer(context.Background(), req)
			if err != nil {
				errs[i] = err
				return
			}
			b, _ := json.Marshal(resp)
			bodies[i] = string(b)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("caller %d diverged:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := svc.Stats().Infers; got != callers {
		t.Errorf("infer count = %d, want %d", got, callers)
	}
}

func TestHealthReportsOccupancyAndCaches(t *testing.T) {
	svc := New(Config{WorkersPerShard: 2, CalibrationRuns: 5})
	// Warm one shard and its calibration cache.
	req := api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Calibrate: true, Runs: 2}
	if _, err := svc.Measure(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Measure(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	h := svc.Health()
	if len(h.Shards) != 1 {
		t.Fatalf("shards = %d, want 1", len(h.Shards))
	}
	sh := h.Shards[0]
	if sh.InUse != 0 || sh.Idle != sh.Workers {
		t.Errorf("idle pool reports occupancy: %+v", sh)
	}
	if h.Calibrations != sh.Calibrations || h.Calibrations != 1 {
		t.Errorf("calibration totals: top %d, shard %d, want 1", h.Calibrations, sh.Calibrations)
	}
	// Second identical request hit the cache: rate strictly between 0
	// and 1.
	if h.CalibrationHitRate <= 0 || h.CalibrationHitRate >= 1 {
		t.Errorf("hit rate = %v, want in (0, 1)", h.CalibrationHitRate)
	}

	// A pinned worker shows up as occupancy.
	w, err := svc.Pin(context.Background(), mustNorm(t, req))
	if err != nil {
		t.Fatal(err)
	}
	h = svc.Health()
	if h.Shards[0].InUse != 1 {
		t.Errorf("pinned worker not in occupancy: %+v", h.Shards[0])
	}
	w.Release()
	h = svc.Health()
	if h.Shards[0].InUse != 0 {
		t.Errorf("released worker still in occupancy: %+v", h.Shards[0])
	}
}

func mustNorm(t *testing.T, req api.MeasureRequest) api.MeasureRequest {
	t.Helper()
	norm, err := req.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	return norm
}
