package service

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// stripTrace marshals a response and deletes the trace block, so
// traced and untraced responses can be compared byte-for-byte on
// everything the determinism contract covers.
func stripTrace(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	delete(m, "trace")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("remarshal: %v", err)
	}
	return string(out)
}

// spanNames collects the set of span names present in a trace block.
func spanNames(ti *api.TraceInfo) map[string]bool {
	got := make(map[string]bool)
	if ti == nil {
		return got
	}
	for _, sp := range ti.Spans {
		got[sp.Name] = true
	}
	return got
}

// TestMeasureTraceOptIn pins the tentpole contract on /measure: a
// traced request carries a span trace, an untraced one carries none,
// and the two responses are byte-identical once the trace block is
// stripped — tracing is presentation, never semantics.
func TestMeasureTraceOptIn(t *testing.T) {
	s := New(Config{WorkersPerShard: 1})
	req := api.MeasureRequest{
		Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr",
		Runs: 3, Calibrate: true,
	}

	plain := measure(t, s, req)
	if plain.Trace != nil {
		t.Fatalf("untraced request got a trace block: %+v", plain.Trace)
	}

	traced := req
	traced.Trace = true
	withTrace := measure(t, s, traced)
	if withTrace.Trace == nil {
		t.Fatal("traced request got no trace block")
	}
	if withTrace.Trace.Coalesced {
		t.Error("uncontended traced request reported coalesced=true")
	}

	names := spanNames(withTrace.Trace)
	for _, want := range []string{
		telemetry.SpanCanonicalize,
		telemetry.SpanPoolAcquire,
		telemetry.SpanCalibrate,
		telemetry.SpanEngineRun,
		telemetry.SpanCorrect,
	} {
		if !names[want] {
			t.Errorf("traced /measure missing span %q (got %v)", want, names)
		}
	}
	if names[telemetry.SpanCoalesceWait] {
		t.Error("uncontended request recorded a coalesce-wait span")
	}
	catalogue := make(map[string]bool)
	for _, n := range telemetry.SpanNames() {
		catalogue[n] = true
	}
	for n := range names {
		if !catalogue[n] {
			t.Errorf("span %q not in the telemetry catalogue", n)
		}
	}

	// Echoed request must be in canonical form: trace flag stripped.
	if withTrace.Request.Trace {
		t.Error("response echoes a request with the trace flag still set")
	}
	if got, want := stripTrace(t, withTrace), stripTrace(t, plain); got != want {
		t.Errorf("traced response differs beyond the trace block:\n traced: %s\nuntraced: %s", got, want)
	}
}

// traceOf decodes the trace block of a marshaled response, nil when
// it carries none.
func traceOf(t *testing.T, v any) *api.TraceInfo {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out struct {
		Trace *api.TraceInfo `json:"trace"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return out.Trace
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestMeasureTraceCoalescedFollower checks follower truthfulness on all
// four coalesced endpoints. The leader is held at its worker checkout
// until a traced follower has joined its flight, so the join is forced,
// not hoped for. A whole-request follower (/measure, /plan) is marked
// coalesced and records its own coalesce-wait, never a replay of the
// leader's execution spans. A batch follower (/analyze, /infer)
// records each followed item's wait with the item index, and the batch
// is never marked coalesced. Bodies stay byte-identical after
// stripping the trace.
func TestMeasureTraceCoalescedFollower(t *testing.T) {
	m := api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr", Runs: 2}
	norm, err := m.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	type flight interface {
		Len() int
		Counts() (leaders, followers uint64)
	}
	cases := []struct {
		name   string
		whole  bool
		flight func(*Service) flight
		call   func(s *Service, sh *shard, traced bool) (any, error)
	}{
		{"measure", true, func(s *Service) flight { return s.flight },
			func(s *Service, _ *shard, traced bool) (any, error) {
				req := m
				req.Trace = traced
				return s.Measure(context.Background(), req)
			}},
		{"plan", true, func(s *Service) flight { return s.pflight },
			func(s *Service, sh *shard, traced bool) (any, error) {
				req := api.PlanRequest{Measure: m, TargetRelWidth: 0.2, Trace: traced}
				return s.Plan(context.Background(), req, func(ctx context.Context, norm api.PlanRequest) (*api.PlanResponse, error) {
					sp := telemetry.StartSpan(ctx, telemetry.SpanPoolAcquire)
					sys, err := sh.checkout(ctx)
					sp.End()
					if err != nil {
						return nil, err
					}
					sh.checkin(sys)
					telemetry.StartSpan(ctx, telemetry.SpanFuse).End()
					return &api.PlanResponse{Attained: true}, nil
				})
			}},
		{"analyze", false, func(s *Service) flight { return s.aflight },
			func(s *Service, _ *shard, traced bool) (any, error) {
				req := api.AnalyzeRequest{Items: []api.AnalyzeItem{{Measure: m}}, Trace: traced}
				return s.Analyze(context.Background(), req)
			}},
		{"infer", false, func(s *Service) flight { return s.iflight },
			func(s *Service, _ *shard, traced bool) (any, error) {
				req := api.InferRequest{Items: []api.InferItem{{Inputs: []api.InferInput{
					{Measure: &m},
					{Event: "CPU_CLK_UNHALTED", Mean: 2000, Variance: 400},
				}}}, Trace: traced}
				return s.Infer(context.Background(), req)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{WorkersPerShard: 1, CalibrationRuns: 3})
			sh, err := s.shard(norm)
			if err != nil {
				t.Fatal(err)
			}
			// Hold the shard's only worker: the leader blocks at checkout.
			sys, err := sh.checkout(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			type result struct {
				resp any
				err  error
			}
			run := func(traced bool) <-chan result {
				ch := make(chan result, 1)
				go func() {
					resp, err := tc.call(s, sh, traced)
					ch <- result{resp, err}
				}()
				return ch
			}
			f := tc.flight(s)
			leaderDone := run(false)
			waitFor(t, "the leader's flight", func() bool { return f.Len() > 0 })
			followerDone := run(true)
			waitFor(t, "the follower to join", func() bool { _, n := f.Counts(); return n > 0 })
			sh.checkin(sys)
			leader, follower := <-leaderDone, <-followerDone
			if leader.err != nil || follower.err != nil {
				t.Fatalf("leader err %v, follower err %v", leader.err, follower.err)
			}
			if leaders, followers := f.Counts(); leaders != 1 || followers != 1 {
				t.Errorf("flight counts leaders=%d followers=%d, want 1 and 1", leaders, followers)
			}
			if got, want := stripTrace(t, follower.resp), stripTrace(t, leader.resp); got != want {
				t.Errorf("follower body diverges after stripping trace:\n got %s\nwant %s", got, want)
			}
			if traceOf(t, leader.resp) != nil {
				t.Error("untraced leader received a trace block")
			}
			tr := traceOf(t, follower.resp)
			if tr == nil {
				t.Fatal("traced follower received no trace block")
			}
			if tr.Coalesced != tc.whole {
				t.Errorf("follower coalesced = %v, want %v", tr.Coalesced, tc.whole)
			}
			wantItem := "0" // the batch's only item
			if tc.whole {
				wantItem = ""
			}
			waits := 0
			for _, sp := range tr.Spans {
				switch sp.Name {
				case telemetry.SpanCoalesceWait:
					waits++
					if got := sp.Annotations["item"]; got != wantItem {
						t.Errorf("coalesce-wait item annotation %q, want %q", got, wantItem)
					}
				case telemetry.SpanPoolAcquire, telemetry.SpanCalibrate, telemetry.SpanEngineRun,
					telemetry.SpanCorrect, telemetry.SpanFuse, telemetry.SpanInferSolve:
					// A follower never executed: the leader's execution
					// spans must not appear replayed in its trace.
					t.Errorf("follower replays leader span %q", sp.Name)
				}
			}
			if waits != 1 {
				t.Errorf("follower has %d coalesce-wait spans, want 1 (spans %+v)", waits, tr.Spans)
			}
			if !spanNames(tr)[telemetry.SpanCanonicalize] {
				t.Error("follower has no canonicalize span")
			}
		})
	}
}

// TestAnalyzeAndInferTraceOptIn covers the batch endpoints: traces are
// opt-in, annotated per item when coalescing, and stripping them
// restores byte-identity with the untraced response.
func TestAnalyzeAndInferTraceOptIn(t *testing.T) {
	s := New(Config{WorkersPerShard: 1})
	ctx := context.Background()

	areq := api.AnalyzeRequest{Items: []api.AnalyzeItem{{
		Measure:     api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Runs: 4},
		MpxCounters: 2,
	}}}
	plain, err := s.Analyze(ctx, areq)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced analyze got a trace block")
	}
	atraced := areq
	atraced.Trace = true
	withTrace, err := s.Analyze(ctx, atraced)
	if err != nil {
		t.Fatalf("Analyze traced: %v", err)
	}
	if withTrace.Trace == nil || len(withTrace.Trace.Spans) == 0 {
		t.Fatal("traced analyze got no spans")
	}
	if withTrace.Trace.Coalesced {
		t.Error("batch response marked coalesced; only per-item waits may be")
	}
	if got, want := stripTrace(t, withTrace), stripTrace(t, plain); got != want {
		t.Errorf("traced analyze differs beyond trace:\n traced: %s\nuntraced: %s", got, want)
	}

	ireq := api.InferRequest{Items: []api.InferItem{{
		Processor: "K8",
		Inputs: []api.InferInput{
			{Event: "INSTR_RETIRED", Mean: 1000, Variance: 100},
			{Event: "CPU_CLK_UNHALTED", Mean: 2000, Variance: 400},
		},
	}}}
	iplain, err := s.Infer(ctx, ireq)
	if err != nil {
		t.Fatalf("Infer: %v", err)
	}
	if iplain.Trace != nil {
		t.Fatal("untraced infer got a trace block")
	}
	itraced := ireq
	itraced.Trace = true
	iwith, err := s.Infer(ctx, itraced)
	if err != nil {
		t.Fatalf("Infer traced: %v", err)
	}
	if iwith.Trace == nil {
		t.Fatal("traced infer got no trace block")
	}
	if !spanNames(iwith.Trace)[telemetry.SpanInferSolve] {
		t.Errorf("traced infer missing %s span", telemetry.SpanInferSolve)
	}
	if got, want := stripTrace(t, iwith), stripTrace(t, iplain); got != want {
		t.Errorf("traced infer differs beyond trace:\n traced: %s\nuntraced: %s", got, want)
	}
}
