package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/bayes"
	"repro/internal/campaign"
)

// parseMix parses a -mix spec — comma-separated PROC/stack pairs —
// into measure-request stubs carrying only the configuration identity.
// Shared by every workload builder so the mix format and its errors
// have one definition.
func parseMix(mixSpec string) ([]api.MeasureRequest, error) {
	var configs []api.MeasureRequest
	for _, pair := range strings.Split(mixSpec, ",") {
		proc, stk, ok := strings.Cut(strings.TrimSpace(pair), "/")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want PROC/stack, e.g. K8/pc)", pair)
		}
		configs = append(configs, api.MeasureRequest{Processor: proc, Stack: stk})
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return configs, nil
}

// rotation expands the mix into n measure requests cycling benchmarks,
// patterns, and seeds. The PAPI high-level stacks cannot express
// read-without-reset patterns; their slice of the mix stays on ar/ao.
// Shared by the default and -engine workloads.
func rotation(o options) ([]api.MeasureRequest, error) {
	configs, err := parseMix(o.mix)
	if err != nil {
		return nil, err
	}
	if o.seeds <= 0 {
		return nil, fmt.Errorf("-seeds must be positive (got %d)", o.seeds)
	}
	benches := []string{"loop:1000", "loop:10000", "null", "array:500"}
	patterns := []string{"ar", "ao", "rr", "ro"}
	reqs := make([]api.MeasureRequest, o.n)
	for i := range reqs {
		req := configs[i%len(configs)]
		req.Runs = o.runs
		req.Bench = benches[(i/len(configs))%len(benches)]
		req.Pattern = patterns[(i/(len(configs)*len(benches)))%len(patterns)]
		if strings.HasPrefix(req.Stack, "PH") && (req.Pattern == "rr" || req.Pattern == "ro") {
			req.Pattern = "ar"
		}
		req.Seed = uint64(1 + i%o.seeds)
		reqs[i] = req
	}
	return reqs, nil
}

// measureMode is the default workload: the rotation posted to
// /measure, or with analyze wrapped as one-item /analyze batches.
// With calibrate, every request asks for calibration and the report
// splits each calibration's first request (cold) from the rest (warm).
// The report ends with the encode-stage share of the node's /measure
// p99.
func measureMode(o options) (*mode, error) {
	reqs, err := rotation(o)
	if err != nil {
		return nil, err
	}
	var shots []shot
	seen := make(map[string]bool)
	for i, req := range reqs {
		req.Calibrate = o.calibrate
		s := newShot("/measure", req)
		if o.workload == "analyze" {
			s = newShot("/analyze", analyzeWrap(req, i))
		}
		// Cold means "first request that needs this calibration": the
		// server caches calibrations per (shard, pattern, mode, opt),
		// and within this plan mode and opt are constant. Under high
		// concurrency a few cold-labeled items may race warm ones, so
		// the split is approximate; the service benchmarks isolate the
		// exact cache effect.
		calKey := req.Processor + "/" + req.Stack + "/" + req.Pattern
		s.cold = !seen[calKey]
		seen[calKey] = true
		shots = append(shots, s)
	}
	m := &mode{noun: "requests", waves: [][]shot{shots}, agree: "determinism: %d distinct requests, all responses consistent"}
	var cold, warm []time.Duration
	m.check = func(out *outcome) error {
		if out.cold {
			cold = append(cold, out.latency)
		} else {
			warm = append(warm, out.latency)
		}
		return nil
	}
	m.extra = func(w io.Writer) {
		if o.calibrate && len(cold) > 0 && len(warm) > 0 {
			fmt.Fprintf(w, "cold (first per config, runs calibration): %s\n", summarizeLatency(cold))
			fmt.Fprintf(w, "warm (calibration cache hit):              %s\n", summarizeLatency(warm))
		}
		// The serialization-share measurement behind the pooled-encoder
		// decision (docs/CLUSTER.md), computed from the server's own
		// stage histograms now that this run has populated them.
		reportEncodeShare(w, o.addr)
	}
	return m, nil
}

// analyzeWrap turns a measure request into a one-item /analyze batch,
// rotating through the error models so a load run exercises all of
// them: plain counting, duet pairing against the null benchmark,
// multiplexed estimation, and the sampling model.
func analyzeWrap(req api.MeasureRequest, i int) *api.AnalyzeRequest {
	item := api.AnalyzeItem{Measure: req}
	switch i % 4 {
	case 1:
		duet := req
		duet.Bench = "null"
		item.Duet = &duet
	case 2:
		item.Measure.Events = []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED"}
		item.MpxCounters = 1
	case 3:
		item.SamplingPeriod = 10_000
	}
	return &api.AnalyzeRequest{Items: []api.AnalyzeItem{item}}
}

// rawInfer is the BayesPerf-style sum decomposition over raw inputs:
// consistent by construction and cheap, no measuring. shift moves TOTAL
// and A together, so the residual (and the verdict) stays the same
// while the request body changes.
func rawInfer(shift float64) api.InferItem {
	return api.InferItem{
		Inputs: []api.InferInput{
			{Event: "TOTAL", Mean: 1485 + shift, Variance: 900},
			{Event: "A", Mean: 1008 + shift, Variance: 400},
			{Event: "B", Mean: 503, Variance: 625},
		},
		Constraints: []api.InferConstraint{{
			Name: "decompose",
			Terms: []bayes.Term{
				{Event: "TOTAL", Coef: 1}, {Event: "A", Coef: -1}, {Event: "B", Coef: -1},
			},
			Op: bayes.OpEq, RHS: 0,
		}},
	}
}

// mixedShots expands the mix into n requests rotating through all four
// request/response endpoints — /measure, /analyze, /plan, /infer — so
// one load run covers the whole serving surface and the report's
// per-endpoint latency split has something to split. Payloads are kept
// modest: the mixed workload measures the endpoints' relative costs,
// not their extremes. Every fourth shot repeats one raw /infer body, so
// the determinism check compares identical requests; with distinct,
// that body moves with the rotation group instead, for traced runs:
// identical requests in flight together coalesce, and a coalesced
// follower's trace records only its wait, not the work. With trace,
// each shot opts into tracing. Shared by -mixed, -trace, and -cluster.
func mixedShots(o options, trace, distinct bool) ([]shot, error) {
	configs, err := parseMix(o.mix)
	if err != nil {
		return nil, err
	}
	benches := []string{"loop:1000", "loop:5000", "array:500"}
	shots := make([]shot, 0, o.n)
	for i := 0; i < o.n; i++ {
		cfg := configs[(i/4)%len(configs)]
		req := api.MeasureRequest{
			Processor: cfg.Processor, Stack: cfg.Stack,
			Bench: benches[(i/(4*len(configs)))%len(benches)],
			Runs:  o.runs,
			Seed:  uint64(1 + i/(4*len(configs)*len(benches))),
		}
		switch i % 4 {
		case 0:
			req.Trace = trace
			shots = append(shots, newShot("/measure", req))
		case 1:
			shots = append(shots, newShot("/analyze", api.AnalyzeRequest{
				Items: []api.AnalyzeItem{{Measure: req, MpxCounters: 2}}, Trace: trace}))
		case 2:
			req.Events = []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED"}
			req.Runs = 0 // the plan decides its own run counts
			shots = append(shots, newShot("/plan", api.PlanRequest{
				Measure: req, TargetRelWidth: 0.25, PilotRuns: 2, MaxRuns: 8, Trace: trace}))
		case 3:
			shift := 0.0
			if distinct {
				shift = float64(i / 4)
			}
			shots = append(shots, newShot("/infer", api.InferRequest{Items: []api.InferItem{rawInfer(shift)}, Trace: trace}))
		}
	}
	return shots, nil
}

// mixedMode drives the mixed rotation with the default determinism
// cross-check, endpoint-agnostic.
func mixedMode(o options) (*mode, error) {
	shots, err := mixedShots(o, false, false)
	return &mode{noun: "requests", waves: [][]shot{shots}, agree: "determinism: %d distinct requests, all responses consistent"}, err
}

// wider reports whether interval a is wider than b beyond rounding.
func wider(a, b api.EstimateInfo) bool { return a.Hi-a.Lo > (b.Hi-b.Lo)*(1+1e-9) }

// planMode issues accuracy-targeted /plan requests in identical pairs,
// asserting that every fused interval is at most its naive one and
// that every plan attains its CI target. Every variant uses events
// whose counts are either large (so the relative target is attainable
// within the budget) or exactly zero (attained trivially), keeping the
// attainment assertion sound under load.
func planMode(o options) (*mode, error) {
	variants := []struct {
		bench    string
		events   []string
		counters int
	}{
		// Multiplexed: 3 events on 2 counters, anchor-pinned groups.
		{"array:1000000", []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "DCACHE_MISS"}, 2},
		// Dedicated: fits the hardware, exercises calibration reuse.
		{"loop:2000000", []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED"}, 0},
		// Multiplexed, wider set: 4 events on 2 counters.
		{"array:2000000", []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "DCACHE_MISS", "BR_MISP_RETIRED"}, 2},
	}
	configs, err := parseMix(o.mix)
	if err != nil {
		return nil, err
	}
	var shots []shot
	for i := 0; i < o.n; i++ {
		// i/2: every request is issued twice, so identical pairs exercise
		// the determinism cross-check (and in-flight coalescing).
		v := variants[(i/2)%len(variants)]
		cfg := configs[(i/(2*len(variants)))%len(configs)]
		shots = append(shots, newShot("/plan", api.PlanRequest{
			Measure: api.MeasureRequest{
				Processor: cfg.Processor, Stack: cfg.Stack, Bench: v.bench, Events: v.events,
			},
			TargetRelWidth: 0.1,
			Counters:       v.counters,
			PilotRuns:      2,
			MaxRuns:        16,
		}))
	}
	m := &mode{noun: "plans", waves: [][]shot{shots}, agree: "determinism: %d distinct plans, all responses consistent"}
	var attained, plans, runs, roundsMax, events int
	var narrowing float64
	m.check = func(out *outcome) error {
		var pr api.PlanResponse
		if err := json.Unmarshal(out.body, &pr); err != nil {
			return fmt.Errorf("/plan: %w", err)
		}
		plans++
		runs += pr.TotalRuns
		roundsMax = max(roundsMax, pr.Rounds)
		for _, est := range pr.Estimates {
			narrowing += est.Narrowing
			events++
			if wider(est.Fused, est.Naive) {
				return fmt.Errorf("/plan: %s: fused interval wider than the naive one", est.Event)
			}
		}
		if !pr.Attained {
			return fmt.Errorf("/plan: missed an attainable CI target")
		}
		attained++
		return nil
	}
	m.extra = func(w io.Writer) {
		if plans > 0 {
			fmt.Fprintf(w, "attained:    %d/%d plans met their CI target (max rounds %d, %.1f runs/plan)\n",
				attained, plans, roundsMax, float64(runs)/float64(plans))
		}
		if events > 0 {
			fmt.Fprintf(w, "narrowing:   %.1f%% mean fused-vs-naive interval reduction\n", 100*narrowing/float64(events))
		}
	}
	return m, nil
}

// inferMode issues /infer requests in identical pairs cycling three
// variants — measured inputs under the built-in library, raw inputs
// under an explicit sum constraint, and a deliberately inconsistent
// raw pair — asserting posterior intervals never wider than the priors
// and residual verdicts matching each variant.
func inferMode(o options) (*mode, error) {
	configs, err := parseMix(o.mix)
	if err != nil {
		return nil, err
	}
	var shots []shot
	planted := make(map[string]bool) // identities built inconsistent on purpose
	for i := 0; i < o.n; i++ {
		cfg := configs[(i/2)%len(configs)]
		var item api.InferItem
		variant := (i / (2 * len(configs))) % 3
		switch variant {
		case 0:
			// Measured: two events of one configuration, the built-in
			// library ties them (superscalar width, non-negativity).
			for _, event := range []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED"} {
				item.Inputs = append(item.Inputs, api.InferInput{Measure: &api.MeasureRequest{
					Processor: cfg.Processor, Stack: cfg.Stack,
					Bench: "loop:500000", Pattern: "ar", Runs: 4, Events: []string{event},
				}})
			}
		case 1:
			item = rawInfer(0)
		case 2:
			// Deliberately inconsistent: ITLB misses far above i-cache
			// misses cannot happen on the simulated ISA, so the library's
			// residual must flag it (and the posterior must reconcile).
			item = api.InferItem{Processor: cfg.Processor, Inputs: []api.InferInput{
				{Event: "ITLB_MISS", Mean: 4000, Variance: 100},
				{Event: "ICACHE_MISS", Mean: 40, Variance: 100},
			}}
		}
		s := newShot("/infer", api.InferRequest{Items: []api.InferItem{item}})
		planted[s.key] = variant == 2
		shots = append(shots, s)
	}
	m := &mode{noun: "infers", waves: [][]shot{shots}, agree: "determinism: %d distinct infers, all responses consistent"}
	var responses, flagged, clean int
	var tightening float64
	m.check = func(out *outcome) error {
		var ir api.InferResponse
		if err := json.Unmarshal(out.body, &ir); err != nil {
			return fmt.Errorf("/infer: %w", err)
		}
		responses++
		consistent, violated := true, false
		for _, res := range ir.Results {
			tightening += res.Tightening
			consistent = consistent && res.Consistent
			for _, r := range res.Residuals {
				violated = violated || r.Violated
			}
			for i, post := range res.Posterior {
				if wider(post, res.Prior[i]) {
					return fmt.Errorf("/infer: %s: posterior interval wider than the prior", post.Event)
				}
			}
		}
		switch {
		case planted[out.key] && (!violated || consistent):
			return fmt.Errorf("/infer: planted inconsistency escaped the residual check")
		case planted[out.key]:
			flagged++
		case !consistent:
			return fmt.Errorf("/infer: consistent item flagged inconsistent")
		default:
			clean++
		}
		return nil
	}
	m.extra = func(w io.Writer) {
		if responses > 0 {
			fmt.Fprintf(w, "tightening:  %.1f%% mean posterior-vs-prior interval reduction\n", 100*tightening/float64(responses))
			fmt.Fprintf(w, "residuals:   %d planted inconsistencies flagged, %d clean items clean\n", flagged, clean)
		}
	}
	return m, nil
}

// engineMode measures every configuration of the rotation twice —
// pinned to the interpreter and to the compiled engine, interleaved so
// the pair races on the same shard — minus calibration (identical
// across engines by construction, and slow). Both engines' answers and
// every repeat of the configuration share one identity, so they must
// all be byte-identical once the echoed engine selector is cleared.
func engineMode(o options) (*mode, error) {
	reqs, err := rotation(o)
	if err != nil {
		return nil, err
	}
	var shots []shot
	for _, req := range reqs {
		key := fmt.Sprintf("%s/%s/%s/%s/s%d", req.Processor, req.Stack, req.Bench, req.Pattern, req.Seed)
		for _, engine := range []string{api.EngineInterpreter, api.EngineCompiled} {
			req.Engine = engine
			s := newShot("/measure", req)
			s.key = key
			shots = append(shots, s)
		}
	}
	m := &mode{noun: "requests", waves: [][]shot{shots}, agree: "conformance: %d engine pairs, interpreter and compiled byte-identical"}
	m.check = clearEngineEcho
	return m, nil
}

// clearEngineEcho normalizes a /measure answer for the cross-engine
// comparison: the echoed engine selector is the only field allowed to
// differ between the engines, so it is cleared.
func clearEngineEcho(o *outcome) error {
	var mr api.MeasureResponse
	if err := json.Unmarshal(o.body, &mr); err != nil {
		return fmt.Errorf("/measure: %w", err)
	}
	mr.Request.Engine = ""
	norm, err := json.Marshal(mr)
	o.cmp = string(norm)
	return err
}

// pairedMix validates a stream workload's size and parses its mix;
// stream workloads open every configuration as an identical pair, so
// an odd -n rounds up.
func pairedMix(o options) ([]api.MeasureRequest, error) {
	if o.n <= 0 {
		return nil, fmt.Errorf("-n must be positive (got %d)", o.n)
	}
	return parseMix(o.mix)
}

// monitorMode opens streaming sessions in identical-configuration
// pairs and cross-checks that paired sessions streamed byte-identical
// sample series.
func monitorMode(o options) (*mode, error) {
	configs, err := pairedMix(o)
	if err != nil {
		return nil, err
	}
	benches := []string{"loop:1000", "loop:10000", "null", "array:500"}
	var shots []shot
	for i := 0; i < o.n+o.n%2; i++ {
		pair := i / 2 // both members of a pair share everything
		req := configs[pair%len(configs)]
		req.Bench = benches[pair%len(benches)]
		req.Seed = uint64(1 + pair)
		shots = append(shots, newShot("/sessions", api.SessionRequest{Measure: req, Steps: o.steps, WindowSize: o.window}))
	}
	m := &mode{noun: "sessions", waves: [][]shot{shots}, agree: "determinism: %d distinct configs, all paired series identical"}
	var samples, drifts int
	m.check = func(out *outcome) error {
		var created api.SessionCreated
		if err := json.Unmarshal(out.body, &created); err != nil {
			return fmt.Errorf("/sessions: %w", err)
		}
		// The identity is the server's normalized-config echo, so
		// client-side default guessing can't split a group.
		out.key = "session " + created.Config.SessionKey()
		var series bytes.Buffer
		for _, ev := range out.events {
			switch ev.Type {
			case api.StreamSample:
				samples++
				series.Write(ev.raw)
			case api.StreamDrift:
				drifts++
			}
		}
		out.cmp = series.String()
		return nil
	}
	m.extra = func(w io.Writer) {
		fmt.Fprintf(w, "samples:     %d streamed, %d drift events\n", samples, drifts)
	}
	return m, nil
}

// campaignMode opens adversarial counter-validation campaigns in
// identical-configuration pairs and cross-checks that paired campaigns
// streamed byte-identical events. Any finding fails the run: the stock
// models must survive their own attack suite.
func campaignMode(o options) (*mode, error) {
	if o.programs <= 0 {
		return nil, fmt.Errorf("-programs must be positive (got %d)", o.programs)
	}
	configs, err := pairedMix(o)
	if err != nil {
		return nil, err
	}
	var shots []shot
	for i := 0; i < o.n+o.n%2; i++ {
		pair := i / 2 // both members of a pair share everything
		cfg := configs[pair%len(configs)]
		shots = append(shots, newShot("/campaigns", api.CampaignRequest{
			Seed: uint64(1 + pair), Programs: o.programs,
			Processors: []string{cfg.Processor}, Stack: cfg.Stack,
			Runs: 4, Scale: 2, InferEvery: 2, PlanEvery: 4,
		}))
	}
	m := &mode{noun: "campaigns", agree: "determinism: %d distinct configs, all paired streams identical"}
	// pcserved refuses campaigns over its limit with 503, so they go in
	// waves of its default limit, an even number so pairs stay together.
	for len(shots) > 0 {
		n := min(campaign.DefaultMaxCampaigns, len(shots))
		m.waves, shots = append(m.waves, shots[:n]), shots[n:]
	}
	var swept, findings int
	m.check = func(out *outcome) error {
		var created api.CampaignCreated
		if err := json.Unmarshal(out.body, &created); err != nil {
			return fmt.Errorf("/campaigns: %w", err)
		}
		out.key = "campaign " + created.Config.Key()
		var stream bytes.Buffer
		found := 0
		for _, ev := range out.events {
			stream.Write(ev.raw)
			switch ev.Type {
			case api.CampaignEventProgram:
				swept++
			case api.CampaignEventFinding:
				found++
			}
		}
		out.cmp = stream.String()
		findings += found
		if found > 0 {
			return fmt.Errorf("MODEL REFUTED: campaign produced %d findings against the server's models", found)
		}
		return nil
	}
	m.extra = func(w io.Writer) {
		fmt.Fprintf(w, "programs:    %d swept, %d findings\n", swept, findings)
	}
	return m, nil
}
