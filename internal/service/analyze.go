package service

import (
	"context"

	"repro/internal/accuracy"
	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mpx"
	"repro/internal/sampling"
	stackpkg "repro/internal/stack"
	"repro/internal/telemetry"
)

// Analyze serves one batch of analysis items. Items are independent:
// they run concurrently (each on a worker from its own shard),
// identical in-flight items coalesce, the lowest-index failing item
// fails the batch, and results come back in item order. Like Measure,
// the response for a normalized batch is deterministic.
func (s *Service) Analyze(ctx context.Context, req api.AnalyzeRequest) (*api.AnalyzeResponse, error) {
	return serve(ctx, req, req.Trace, func(ctx context.Context, norm api.AnalyzeRequest) (*api.AnalyzeResponse, error) {
		results, err := batch(ctx, s.aflight, norm.Items, s.executeAnalyze)
		if err != nil {
			return nil, err
		}
		return &api.AnalyzeResponse{Results: results}, nil
	})
}

// executeAnalyze runs every requested error model of one item on a
// worker from the item's shard. Each phase starts from a Reset system,
// so the result is a pure function of the normalized item.
func (s *Service) executeAnalyze(ctx context.Context, item api.AnalyzeItem) (*api.AnalyzeResult, error) {
	sh, sys, err := s.acquire(ctx, item.Measure, false)
	if err != nil {
		return nil, err
	}
	defer sh.checkin(sys)

	// Overhead subtraction always consults the calibration cache: the
	// calibrated fixed error is the first correction term of the
	// counting model (the paper's Section 8 guideline).
	cal, err := s.calibration(ctx, sh, item.Measure, sys)
	if err != nil {
		return nil, err
	}
	res := &api.AnalyzeResult{
		Item: item,
		Calibration: &api.CalibrationInfo{
			Offset:   cal.Offset,
			Strategy: cal.Strategy,
			Samples:  cal.Samples,
		},
	}

	bench, err := api.ParseBench(item.Measure.Bench)
	if err != nil {
		return nil, err
	}
	res.Expected = bench.ExpectedInstr

	tr := telemetry.FromContext(ctx)
	var sp *telemetry.Span
	if item.MpxCounters > 0 {
		sp = tr.Start(telemetry.SpanEngineRun).Annotate("phase", "multiplexed")
		err = s.analyzeMultiplexed(ctx, item, sys, bench, res)
	} else {
		sp = tr.Start(telemetry.SpanEngineRun).Annotate("phase", "counting")
		err = s.analyzeCounting(ctx, item, sys, cal, res)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	if item.SamplingPeriod > 0 {
		sp = tr.Start(telemetry.SpanEngineRun).Annotate("phase", "sampling")
		err = s.analyzeSampling(ctx, item, sys, bench, res)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	if item.Duet != nil {
		sp = tr.Start(telemetry.SpanEngineRun).Annotate("phase", "duet")
		err = s.analyzeDuet(ctx, item, sys, res)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// analyzeCounting measures the item's configuration through its full
// infrastructure stack and builds the per-event counting estimates: the
// run-mean count, overhead-corrected on the first (calibrated) counter,
// with dispersion intervals.
func (s *Service) analyzeCounting(ctx context.Context, item api.AnalyzeItem, sys *stackpkg.System, cal core.Calibration, res *api.AnalyzeResult) error {
	norm := item.Measure
	creq, err := norm.Build()
	if err != nil {
		return err
	}
	creq.Runner = s.runnerFor(norm.Engine)
	sys.Reset()
	counts := make([][]float64, len(norm.Events))
	for i := 0; i < norm.Runs; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		creq.Seed = norm.Seed + uint64(i)
		m, err := sys.Measure(creq)
		if err != nil {
			return err
		}
		res.Expected = m.Expected
		for ev := range norm.Events {
			counts[ev] = append(counts[ev], float64(m.Deltas[ev]))
		}
	}
	for ev, evCounts := range counts {
		// The null-benchmark calibration estimates the fixed error of
		// the first counter's instruction count; other events carry no
		// overhead term, only their dispersion interval.
		overhead := 0.0
		if ev == 0 {
			overhead = cal.Offset
		}
		est, err := accuracy.FromRuns(evCounts, overhead, item.Confidence)
		if err != nil {
			return err
		}
		res.Counting = append(res.Counting, api.EstimateInfoFrom(norm.Events[ev], est))
	}
	return nil
}

// analyzeMultiplexed estimates the item's events by time-sharing
// MpxCounters hardware counters, then applies the extrapolation error
// model: Poisson noise on the observed share plus run-to-run phase
// dispersion.
func (s *Service) analyzeMultiplexed(ctx context.Context, item api.AnalyzeItem, sys *stackpkg.System, bench *core.Benchmark, res *api.AnalyzeResult) error {
	norm := item.Measure
	events := make([]cpu.Event, len(norm.Events))
	for i, name := range norm.Events {
		ev, err := cpu.EventByName(name)
		if err != nil {
			return err
		}
		events[i] = ev
	}
	sys.Reset()
	m, err := mpx.New(sys.Kernel, item.MpxCounters, events)
	if err != nil {
		return err
	}
	// The rotation callback must not outlive this analysis: the worker
	// goes back into the pool when we return.
	defer m.Close()
	m.Runner = s.runnerFor(norm.Engine)

	prog := bench.RawProgram()
	perEvent := make([][]mpx.Estimate, len(events))
	for i := 0; i < norm.Runs; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		ests, err := m.Run(prog, norm.Seed+uint64(i))
		if err != nil {
			return err
		}
		for ev, est := range ests {
			perEvent[ev] = append(perEvent[ev], est)
		}
	}
	for ev, runs := range perEvent {
		est, err := accuracy.Multiplex(runs, item.Confidence)
		if err != nil {
			return err
		}
		res.Multiplexed = append(res.Multiplexed, api.EstimateInfoFrom(norm.Events[ev], est))
	}
	return nil
}

// analyzeSampling estimates the first event with the sampling usage
// model at the item's overflow period and applies the quantization
// error model: the deterministic one-period bracket with the midpoint
// correction.
func (s *Service) analyzeSampling(ctx context.Context, item api.AnalyzeItem, sys *stackpkg.System, bench *core.Benchmark, res *api.AnalyzeResult) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	norm := item.Measure
	ev, err := cpu.EventByName(norm.Events[0])
	if err != nil {
		return err
	}
	sys.Reset()
	p, err := sampling.New(sys.Kernel, ev, item.SamplingPeriod)
	if err != nil {
		return err
	}
	p.Runner = s.runnerFor(norm.Engine)
	prof, err := p.Run(bench.RawProgram(), norm.Seed)
	if err != nil {
		return err
	}
	est, err := accuracy.Sampling(len(prof.Samples), item.SamplingPeriod, item.Confidence)
	if err != nil {
		return err
	}
	info := api.EstimateInfoFrom(norm.Events[0], est)
	res.Sampling = &info
	return nil
}

// analyzeDuet interleaves the item's configuration A with its paired
// configuration B on this one worker — A_1 B_1 A_2 B_2 ... — and
// reports the paired analysis of their counter-0 errors. Interleaving
// on one system is what makes the pairs share their interference;
// errors (not raw counts) are paired so configurations with different
// benchmarks still compare their infrastructures.
func (s *Service) analyzeDuet(ctx context.Context, item api.AnalyzeItem, sys *stackpkg.System, res *api.AnalyzeResult) error {
	// Pairing compares counter-0 errors, so only the first event is
	// measured here. This also keeps duet valid on multiplexed items,
	// whose widened event list exceeds the dedicated-counter limit.
	measureA := item.Measure
	measureA.Events = measureA.Events[:1]
	reqA, err := measureA.Build()
	if err != nil {
		return err
	}
	reqB, err := item.Duet.Build()
	if err != nil {
		return err
	}
	reqA.Runner = s.runnerFor(item.Measure.Engine)
	reqB.Runner = s.runnerFor(item.Duet.Engine)
	sys.Reset()
	n := item.Measure.Runs
	errsA := make([]float64, 0, n)
	errsB := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		reqA.Seed = item.Measure.Seed + uint64(i)
		reqB.Seed = item.Duet.Seed + uint64(i)
		mA, err := sys.Measure(reqA)
		if err != nil {
			return err
		}
		mB, err := sys.Measure(reqB)
		if err != nil {
			return err
		}
		errsA = append(errsA, float64(mA.Error(0, reqA.Mode)))
		errsB = append(errsB, float64(mB.Error(0, reqB.Mode)))
	}
	duet, err := accuracy.Duet(errsA, errsB, item.Confidence)
	if err != nil {
		return err
	}
	res.Duet = &api.DuetInfo{
		Request:        *item.Duet,
		Deltas:         duet.Deltas,
		Mean:           duet.Mean,
		Lo:             duet.CI.Lo,
		Hi:             duet.CI.Hi,
		VarPaired:      duet.VarPaired,
		VarIndependent: duet.VarIndependent,
		Cancellation:   duet.Cancellation,
	}
	return nil
}
