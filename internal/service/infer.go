package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/api"
	"repro/internal/bayes"
	"repro/internal/telemetry"
)

// Infer serves one batch of joint-inference items: per-event Gaussian
// evidence (measured here or supplied raw) conditioned on the linear
// event invariants of internal/bayes. Items run through the same batch
// path as Analyze: concurrent, coalesced per item, deterministic, and
// failed by the lowest-index failing item.
func (s *Service) Infer(ctx context.Context, req api.InferRequest) (*api.InferResponse, error) {
	return serve(ctx, req, req.Trace, func(ctx context.Context, norm api.InferRequest) (*api.InferResponse, error) {
		results, err := batch(ctx, s.iflight, norm.Items, s.executeInfer)
		if err != nil {
			return nil, err
		}
		return &api.InferResponse{Results: results}, nil
	})
}

// executeInfer gathers the item's evidence and conditions it on the
// constraint model. Measured inputs go through the standard Measure
// path concurrently — each lands on its own shard checkout, results
// are keyed by input index so the response stays deterministic, and
// identical measurements coalesce with ordinary /measure traffic
// (normalization already decided the calibration flag, so the
// evidence is the response's accuracy annotation).
func (s *Service) executeInfer(ctx context.Context, item api.InferItem) (*api.InferResult, error) {
	n := len(item.Inputs)
	events := make([]string, n)
	means := make([]float64, n)
	vars := make([]float64, n)
	ns := make([]int, n)
	if _, err := fanOut(n, func(i int) error {
		in := item.Inputs[i]
		events[i] = in.Event
		if in.Measure == nil {
			means[i] = in.Mean
			vars[i] = in.Variance
			ns[i] = 1
			return nil
		}
		resp, err := s.Measure(ctx, *in.Measure)
		if err != nil {
			return err
		}
		if resp.Accuracy == nil {
			return fmt.Errorf("service: measurement of %s produced no accuracy annotation", in.Event)
		}
		means[i] = resp.Accuracy.Corrected
		vars[i] = resp.Accuracy.StdErr * resp.Accuracy.StdErr
		ns[i] = resp.Accuracy.N
		return nil
	}); err != nil {
		return nil, err
	}

	model, err := item.Model()
	if err != nil {
		return nil, err
	}
	sp := telemetry.StartSpan(ctx, telemetry.SpanInferSolve).
		Annotate("events", strconv.Itoa(len(events))).
		Annotate("constraints", strconv.Itoa(len(model.Constraints)))
	sol, err := bayes.Solve(events, means, vars, model)
	sp.End()
	if err != nil {
		// Solver rejections are the request's fault: dependent equality
		// constraints or malformed terms survive normalization only when
		// the *combination* is bad, which a retry cannot fix.
		if errors.Is(err, bayes.ErrDependent) || errors.Is(err, bayes.ErrBadConstraint) ||
			errors.Is(err, bayes.ErrBadInput) || errors.Is(err, bayes.ErrUnknownEvent) {
			return nil, fmt.Errorf("%w: %v", api.ErrBadRequest, err)
		}
		return nil, err
	}

	res := &api.InferResult{
		Item:       item,
		Events:     events,
		Consistent: true,
		Active:     sol.Active,
	}
	var tight float64
	tightN := 0
	for i := range events {
		prior := api.EstimateInfoFromMoments(events[i], means[i], means[i], vars[i], item.Confidence, ns[i])
		post := api.EstimateInfoFromMoments(events[i], means[i], sol.Mean[i], sol.Variance[i], item.Confidence, ns[i])
		res.Prior = append(res.Prior, prior)
		res.Posterior = append(res.Posterior, post)
		if vars[i] > 0 {
			tight += 1 - math.Sqrt(sol.Variance[i]/vars[i])
			tightN++
		}
	}
	if tightN > 0 {
		res.Tightening = tight / float64(tightN)
	}
	for _, r := range sol.Residuals {
		res.Residuals = append(res.Residuals, api.ResidualInfo{
			Constraint: r.Constraint,
			Value:      r.Value,
			Sigma:      r.Sigma,
			Violated:   r.Violated,
		})
		if r.Violated {
			res.Consistent = false
		}
	}
	return res, nil
}
