// Package plan is the experiment planner and measurement-fusion
// subsystem of the measurement service: callers state an accuracy goal
// — estimate these events within this relative confidence-interval
// half-width — and the planner decides the cheapest deterministic
// schedule that meets it, executes the schedule on the service's
// pooled workers, and fuses the resulting partial observations into
// estimates that are never worse than the naive ones.
//
// The paper quantifies how wrong counter measurements are;
// internal/accuracy turns that into per-measurement error reports.
// This package closes the loop and *acts* on the error model, after
// two directions the related work opens:
//
//   - BayesPerf (Banerjee et al.) fuses multiplexed partial
//     observations through statistical models tied together by linear
//     event constraints. Here the constraint is the anchor: the plan
//     pins the first requested event into every multiplexing group, so
//     each group carries an independent estimate of one well-known
//     quantity, and a dedicated reference measurement of the anchor
//     ties them all down. Per-group anchor copies fuse by
//     inverse-variance weighting (accuracy.Combine); every other event
//     is corrected against its group's anchor copy with a
//     control-variate step (FuseEvent) whose variance reduction is
//     structural — by Cauchy-Schwarz the fused interval cannot be
//     wider than the naive one.
//   - Becker and Chakraborty's Linux-measurement report argues
//     replication counts should be derived from a target confidence
//     width, not guessed. The planner runs a small pilot, reads the
//     observed dispersion and extrapolation-model variance
//     (internal/accuracy's multiplexing error model), and solves for
//     the replication count that meets the target; if the executed
//     plan still misses, it re-plans with the now-better dispersion
//     estimate (pooled across rounds with stats.PooledVariance) up to
//     a refine budget.
//
// Everything is deterministic: the schedule is a pure function of the
// normalized request, workers are Reset before use, seeds derive from
// the request, and the fusion arithmetic is pure — so two identical
// /plan requests return byte-identical plans and estimates, and
// identical in-flight plans coalesce exactly as /measure requests do.
package plan

import (
	"context"

	"repro/internal/api"
	"repro/internal/service"
)

// Planner turns plan requests into executed, fused measurement plans
// on a service's worker pools. It is safe for concurrent use.
type Planner struct {
	svc *service.Service
}

// New returns a planner executing on svc's worker pools.
func New(svc *service.Service) *Planner {
	return &Planner{svc: svc}
}

// Do plans, executes, and fuses one request. The response for a given
// normalized request is deterministic, so identical in-flight requests
// join one execution: the service's request path — the one /measure
// takes — normalizes, coalesces, and traces the call, and this
// planner's executor runs once per flight.
func (p *Planner) Do(ctx context.Context, req api.PlanRequest) (*api.PlanResponse, error) {
	return p.svc.Plan(ctx, req, p.execute)
}

// execute routes a normalized request to its mode's executor.
func (p *Planner) execute(ctx context.Context, norm api.PlanRequest) (*api.PlanResponse, error) {
	sched, err := BuildSchedule(norm)
	if err != nil {
		return nil, err
	}
	if sched.Mode == api.PlanModeDedicated {
		return p.executeDedicated(ctx, norm, sched)
	}
	return p.executeMultiplexed(ctx, norm, sched)
}
