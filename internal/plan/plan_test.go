package plan

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/service"
)

func normPlan(t *testing.T, req api.PlanRequest) api.PlanRequest {
	t.Helper()
	norm, err := req.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

func TestBuildScheduleDedicated(t *testing.T) {
	norm := normPlan(t, api.PlanRequest{
		Measure: api.MeasureRequest{
			Processor: "K8", Stack: "pc", Bench: "loop:1000",
			Events: []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED"},
		},
		TargetRelWidth: 0.1,
	})
	s, err := BuildSchedule(norm)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode != api.PlanModeDedicated || len(s.Groups) != 1 || s.Groups[0].Multiplexed {
		t.Errorf("schedule = %+v, want one dedicated group", s)
	}
	if s.Anchor != "" || s.EvList != nil {
		t.Errorf("dedicated schedule carries multiplex state: %+v", s)
	}
}

func TestBuildScheduleMultiplexed(t *testing.T) {
	norm := normPlan(t, api.PlanRequest{
		Measure: api.MeasureRequest{
			Processor: "K8", Stack: "pc", Bench: "loop:1000",
			Events: []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "BR_MISP_RETIRED",
				"ICACHE_MISS", "DCACHE_MISS"},
		},
		TargetRelWidth: 0.1,
		Counters:       2,
	})
	s, err := BuildSchedule(norm)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mode != api.PlanModeMultiplexed || s.Anchor != "INSTR_RETIRED" {
		t.Fatalf("schedule = %+v", s)
	}
	// 4 rotating events on 1 non-anchor slot each -> 4 groups, every
	// group led by the anchor.
	if len(s.Groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(s.Groups))
	}
	for g, group := range s.Groups {
		if !group.Multiplexed || len(group.Events) != 2 || group.Events[0] != "INSTR_RETIRED" {
			t.Errorf("group %d = %+v, want [anchor, event]", g, group)
		}
	}
	if len(s.EvList) != 8 {
		t.Errorf("slot count = %d, want 8", len(s.EvList))
	}
	slots := s.anchorSlots()
	if len(slots) != 4 {
		t.Fatalf("anchor slots = %v", slots)
	}
	for g, slot := range slots {
		if slot != g*2 {
			t.Errorf("anchor slot of group %d = %d, want %d", g, slot, g*2)
		}
	}
	// Every rotating event maps to a slot in the right group.
	for e := 1; e < 5; e++ {
		slot := s.slotOf(e)
		if slot < 0 || s.SlotGroup[slot] != e-1 {
			t.Errorf("event %d: slot %d group %d", e, slot, s.SlotGroup[slot])
		}
	}
}

func TestBuildScheduleSingleCounter(t *testing.T) {
	norm := normPlan(t, api.PlanRequest{
		Measure: api.MeasureRequest{
			Processor: "K8", Stack: "pc", Bench: "loop:1000",
			Events: []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "BR_MISP_RETIRED"},
		},
		TargetRelWidth: 0.1,
		Counters:       1,
	})
	s, err := BuildSchedule(norm)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Groups) != 3 || s.anchorSlots() != nil {
		t.Errorf("single-counter schedule = %+v, want 3 unpinned groups", s)
	}
}

func TestRunsNeeded(t *testing.T) {
	cases := []struct {
		name   string
		z      float64
		target float64
		rows   []perRunStats
		lo, hi int
		want   int
	}{
		{
			name: "already attained stays at pilot",
			z:    2, target: 0.1,
			rows: []perRunStats{{mean: 1000, dispVar: 1}},
			lo:   4, hi: 100, want: 4,
		},
		{
			name: "solves the width equation",
			// n = z² (S+m) / (t·mean)² = 4·100/(0.01·1000)² = 4.
			z: 2, target: 0.01,
			rows: []perRunStats{{mean: 1000, dispVar: 100}},
			lo:   1, hi: 100, want: 4,
		},
		{
			name: "worst event wins",
			z:    2, target: 0.01,
			rows: []perRunStats{
				{mean: 1000, dispVar: 100},
				{mean: 1000, dispVar: 400, modelVar: 0},
			},
			lo: 1, hi: 100, want: 16,
		},
		{
			name: "model variance adds to dispersion",
			z:    2, target: 0.01,
			rows: []perRunStats{{mean: 1000, dispVar: 100, modelVar: 300}},
			lo:   1, hi: 100, want: 16,
		},
		{
			name: "clamped to budget",
			z:    2, target: 0.001,
			rows: []perRunStats{{mean: 1000, dispVar: 1e6}},
			lo:   1, hi: 64, want: 64,
		},
		{
			name: "zero mean uses the magnitude floor",
			// denom = t·max(|0|,1) = 0.5; n = 4·1/0.25 = 16.
			z: 2, target: 0.5,
			rows: []perRunStats{{mean: 0, dispVar: 1}},
			lo:   1, hi: 100, want: 16,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := runsNeeded(c.z, c.target, c.rows, c.lo, c.hi); got != c.want {
				t.Errorf("runsNeeded = %d, want %d", got, c.want)
			}
		})
	}
}

func newPlanner(t *testing.T) *Planner {
	t.Helper()
	return New(service.New(service.Config{WorkersPerShard: 1, CalibrationRuns: 5}))
}

func TestPlanDedicatedThroughService(t *testing.T) {
	p := newPlanner(t)
	resp, err := p.Do(context.Background(), api.PlanRequest{
		Measure: api.MeasureRequest{
			Processor: "K8", Stack: "pc", Bench: "loop:100000", Pattern: "rr",
			Events: []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED"},
		},
		TargetRelWidth: 0.5,
		PilotRuns:      3,
		MaxRuns:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Plan.Mode != api.PlanModeDedicated {
		t.Fatalf("mode = %q", resp.Plan.Mode)
	}
	if resp.Calibration == nil {
		t.Error("dedicated plan missing the reused calibration")
	}
	if len(resp.Estimates) != 2 {
		t.Fatalf("estimates = %d", len(resp.Estimates))
	}
	if !resp.Attained {
		t.Errorf("loose target not attained: %+v", resp.Estimates)
	}
	for _, est := range resp.Estimates {
		jn, _ := json.Marshal(est.Naive)
		jf, _ := json.Marshal(est.Fused)
		if string(jn) != string(jf) {
			t.Errorf("%s: dedicated naive and fused differ: %s vs %s", est.Event, jn, jf)
		}
		if est.Narrowing != 0 {
			t.Errorf("%s: dedicated narrowing = %v", est.Event, est.Narrowing)
		}
	}
	// The anchor's corrected estimate must sit on the analytic truth
	// (300001) once the calibrated overhead is subtracted.
	anchor := resp.Estimates[0]
	if math.Abs(anchor.Fused.Corrected-300001) > 300001*0.01 {
		t.Errorf("anchor corrected = %v, want ~300001", anchor.Fused.Corrected)
	}
}

func TestPlanMultiplexedThroughService(t *testing.T) {
	p := newPlanner(t)
	resp, err := p.Do(context.Background(), api.PlanRequest{
		Measure: api.MeasureRequest{
			Processor: "K8", Stack: "pc", Bench: "array:2000000", Pattern: "rr",
			Events: []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "DCACHE_MISS"},
		},
		TargetRelWidth: 0.1,
		Counters:       2,
		PilotRuns:      3,
		MaxRuns:        12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Plan.Mode != api.PlanModeMultiplexed || len(resp.Plan.Groups) != 2 {
		t.Fatalf("plan = %+v", resp.Plan)
	}
	if resp.Calibration != nil {
		t.Error("multiplexed plan reports a calibration it cannot apply")
	}
	if len(resp.Estimates) != 3 {
		t.Fatalf("estimates = %d", len(resp.Estimates))
	}
	for _, est := range resp.Estimates {
		naiveHalf := (est.Naive.Hi - est.Naive.Lo) / 2
		fusedHalf := (est.Fused.Hi - est.Fused.Lo) / 2
		if fusedHalf > naiveHalf*(1+1e-9) {
			t.Errorf("%s: fused half-width %v exceeds naive %v", est.Event, fusedHalf, naiveHalf)
		}
		if est.Narrowing < 0 {
			t.Errorf("%s: negative narrowing %v", est.Event, est.Narrowing)
		}
	}
	// The anchor fuses per-group copies with the dedicated reference;
	// its interval must actually tighten, and its estimate must sit on
	// the analytic instruction count (1 + 4·iters, plus halt and tick
	// handler — within a percent).
	anchor := resp.Estimates[0]
	if anchor.Narrowing <= 0 {
		t.Errorf("anchor narrowing = %v, want > 0", anchor.Narrowing)
	}
	want := float64(1 + 4*2000000)
	if math.Abs(anchor.Fused.Corrected-want) > want*0.01 {
		t.Errorf("anchor corrected = %v, want ~%v", anchor.Fused.Corrected, want)
	}
	if !resp.Attained {
		t.Errorf("plan missed an attainable target: %+v", resp.Estimates)
	}
	if resp.TotalRuns < resp.Plan.PilotRuns*2 {
		t.Errorf("total runs %d cannot cover pilot + reference", resp.TotalRuns)
	}
}

func TestPlanDeterminism(t *testing.T) {
	req := api.PlanRequest{
		Measure: api.MeasureRequest{
			Processor: "K8", Stack: "pc", Bench: "array:500000", Pattern: "rr",
			Events: []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "DCACHE_MISS", "BR_MISP_RETIRED"},
		},
		TargetRelWidth: 0.2,
		Counters:       2,
		PilotRuns:      2,
		MaxRuns:        8,
	}
	p := newPlanner(t)
	a, err := p.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("identical plans diverged:\n%s\nvs\n%s", ja, jb)
	}
}

// TestRefineLoopGrowsOnUnderestimatedDispersion drives the shared
// refine loop with synthetic closures modeling the case the loop
// exists for: the pilot's dispersion estimate was too low, so the
// first execution misses the target and the re-plan — fed the larger
// observed dispersion — must grow the replication.
func TestRefineLoopGrowsOnUnderestimatedDispersion(t *testing.T) {
	const (
		z       = 2.0
		target  = 0.01
		mean    = 1000.0
		trueVar = 400.0 // per-run; pilot saw only 25
	)
	executed := 0
	history := []int{}
	loop := refineLoop{
		z: z, target: target,
		pilot: 4, maxRuns: 64, maxRefine: 3,
		planned: 4, // what a dispVar=25 pilot would have chosen
	}
	rounds, ests, attained, err := loop.run(
		func(n int) error {
			executed = n
			history = append(history, n)
			return nil
		},
		func() ([]api.PlanEstimate, bool, error) {
			// Width from the true dispersion at the executed replication.
			se := math.Sqrt(trueVar / float64(executed))
			rel := z * se / mean
			est := api.PlanEstimate{
				Event:    "SYNTH",
				RelWidth: rel,
				Attained: rel <= target,
			}
			return []api.PlanEstimate{est}, est.Attained, nil
		},
		func() ([]perRunStats, error) {
			return []perRunStats{{mean: mean, dispVar: trueVar}}, nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	// The true variance needs n = z²·400/(0.01·1000)² = 16 runs.
	if !attained {
		t.Errorf("refinement failed to attain: rounds=%d history=%v ests=%+v", rounds, history, ests)
	}
	if rounds < 2 {
		t.Errorf("rounds = %d, want refinement", rounds)
	}
	if executed != 16 {
		t.Errorf("final replication = %d (history %v), want the re-planned 16", executed, history)
	}
}

// TestRefineLoopStopsAtBudget: an unattainable target must stop at the
// run budget without burning refine rounds it cannot use.
func TestRefineLoopStopsAtBudget(t *testing.T) {
	executed := 0
	loop := refineLoop{
		z: 2, target: 0.001,
		pilot: 2, maxRuns: 8, maxRefine: 5,
		planned: 8, // already clamped to the budget
	}
	rounds, _, attained, err := loop.run(
		func(n int) error { executed = n; return nil },
		func() ([]api.PlanEstimate, bool, error) {
			return []api.PlanEstimate{{Event: "SYNTH", RelWidth: 1, Attained: false}}, false, nil
		},
		func() ([]perRunStats, error) {
			return []perRunStats{{mean: 1, dispVar: 1e9}}, nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if attained || rounds != 1 || executed != 8 {
		t.Errorf("attained=%v rounds=%d executed=%d, want budget-bound single round", attained, rounds, executed)
	}
}

// TestPlanBudgetCapsReplication: end to end, a target far below what
// the budget affords stops at MaxRuns and reports the miss honestly.
func TestPlanBudgetCapsReplication(t *testing.T) {
	p := newPlanner(t)
	resp, err := p.Do(context.Background(), api.PlanRequest{
		Measure: api.MeasureRequest{
			Processor: "K8", Stack: "pc", Bench: "loop:2000000", Pattern: "rr",
			Events: []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "ICACHE_MISS"},
		},
		TargetRelWidth: 0.0005, // per-run CLK model noise alone exceeds this
		Counters:       2,
		PilotRuns:      2,
		MaxRuns:        4,
		MaxRefine:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Attained {
		t.Errorf("unattainable target reported attained: %+v", resp.Estimates)
	}
	mainRuns := resp.TotalRuns - resp.Plan.PilotRuns // minus reference runs
	if mainRuns != 4 {
		t.Errorf("main runs = %d, want the MaxRuns budget 4", mainRuns)
	}
	if resp.Plan.PlannedRuns != 4 {
		t.Errorf("planned = %d, want clamped to budget", resp.Plan.PlannedRuns)
	}
}

func TestPlanNoRefineWhenDisabled(t *testing.T) {
	p := newPlanner(t)
	resp, err := p.Do(context.Background(), api.PlanRequest{
		Measure: api.MeasureRequest{
			Processor: "K8", Stack: "pc", Bench: "loop:2000000", Pattern: "rr",
			Events: []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "BR_MISP_RETIRED"},
		},
		TargetRelWidth: 0.02,
		Counters:       2,
		PilotRuns:      2,
		MaxRuns:        10,
		MaxRefine:      -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 with refinement disabled", resp.Rounds)
	}
}

func TestPlanCoalescing(t *testing.T) {
	p := newPlanner(t)
	req := api.PlanRequest{
		Measure: api.MeasureRequest{
			Processor: "K8", Stack: "pc", Bench: "array:500000", Pattern: "rr",
			Events: []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "DCACHE_MISS"},
		},
		TargetRelWidth: 0.2,
		Counters:       2,
		PilotRuns:      2,
		MaxRuns:        6,
	}
	const callers = 4
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := p.Do(context.Background(), req)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			bodies[i], _ = json.Marshal(resp)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Errorf("caller %d diverged", i)
		}
	}
	if plans := p.svc.Stats().Plans; plans != callers {
		t.Errorf("plans = %d, want %d", plans, callers)
	}
}

func TestPlanRejectsBadRequest(t *testing.T) {
	p := newPlanner(t)
	_, err := p.Do(context.Background(), api.PlanRequest{
		Measure:        api.MeasureRequest{Processor: "Z80", Stack: "pc", Bench: "null"},
		TargetRelWidth: 0.1,
	})
	if err == nil {
		t.Fatal("bad processor accepted")
	}
}
