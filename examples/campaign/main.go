// Campaign: drive the adversarial counter-validation layer in process
// — the same engine behind pcserved's /campaigns endpoint. A campaign
// generates random (but seeded, hence reproducible) programs, computes
// each one's exact analytic truth, sweeps it through the measurement,
// inference, and planning layers on every processor model, and emits a
// finding whenever the system contradicts itself: engines diverging,
// an invariant refuted, a posterior wider than its prior, a fused
// interval wider than naive, or a confidence interval grossly missing
// the truth (see docs/CAMPAIGNS.md).
//
// The stock models survive their own campaign. To prove the attack has
// teeth, a second campaign runs against a deliberately broken
// invariant library (retire width 1): tight loops retire more than one
// instruction per cycle, so the planted invariant is refuted.
package main

import (
	"encoding/json"
	"fmt"
	"log"

	"repro/internal/api"
	"repro/internal/bayes"
	"repro/internal/campaign"
	"repro/internal/cpu"
	"repro/internal/plan"
	"repro/internal/service"
)

func main() {
	svc := service.New(service.Config{WorkersPerShard: 2, CalibrationRuns: 5})
	planner := plan.New(svc)
	services := campaign.Services{Measure: svc.Measure, Infer: svc.Infer, Plan: planner.Do}

	// A small campaign over the stock models: every check enabled, zero
	// findings expected.
	run(services, campaign.Config{SweepInterval: -1}, api.CampaignRequest{
		Seed: 11, Programs: 6, Runs: 4, Scale: 2,
		InferEvery: 2, PlanEvery: 3, EngineEvery: 1,
	}, "stock models")

	// The same sweep against a sabotaged invariant library. Claiming the
	// cores retire at most one instruction per cycle makes the
	// superscalar-width invariant false — and the campaign catches it.
	sabotaged := campaign.Config{
		SweepInterval: -1,
		Invariants: func(m *cpu.Model) bayes.Model {
			bad := *m
			bad.RetireWidth = 1
			return bayes.Library(&bad)
		},
	}
	run(services, sabotaged, api.CampaignRequest{
		Seed: 11, Programs: 6, Runs: 4, Scale: 2, InferEvery: 1,
	}, "planted retire-width=1 invariants")
}

// run opens one campaign, follows its stream to the end event, and
// prints the findings and summary.
func run(svc campaign.Services, cfg campaign.Config, req api.CampaignRequest, label string) {
	reg := campaign.NewRegistry(svc, cfg)
	defer reg.Close()
	camp, err := reg.Open(req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign %s against %s:\n", camp.ID, label)

	events := camp.Log()
	events.Subscribe()
	defer events.Unsubscribe()
	i := 0
	for {
		lines, next, wait, done := events.Events(i)
		i = next
		for _, line := range lines {
			var ev api.CampaignEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				log.Fatal(err)
			}
			switch ev.Type {
			case api.CampaignEventFinding:
				f := ev.Finding
				fmt.Printf("  FINDING %-18s program %d (%s) on %s: %s\n",
					f.Check, f.Program, f.Spec, f.Processor, f.Detail)
			case api.CampaignEventSummary:
				s := ev.Summary
				fmt.Printf("  swept %d programs, %d measurements, %d findings",
					s.Programs, s.Measurements, s.Findings)
				if s.Coverage.N > 0 {
					fmt.Printf(", CI coverage %d/%d missed (rate %.3f, bound %.3f)",
						s.Coverage.Misses, s.Coverage.N, s.Coverage.Rate, s.Coverage.Bound)
				}
				fmt.Println()
			case api.CampaignEventEnd:
				fmt.Printf("  ended: %s\n\n", ev.Reason)
			}
		}
		if len(lines) > 0 {
			continue
		}
		if done {
			return
		}
		<-wait
	}
}
