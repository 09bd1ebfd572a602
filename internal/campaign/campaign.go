// Package campaign is the adversarial counter-validation subsystem:
// sweeps of randomized generated programs (internal/campaign/gen), each
// with an analytically known ground-truth event vector, driven through
// the service's own measurement, inference, and planning paths to
// attack its models. Every broken promise — engines diverging,
// invariants refuted by joint inference, fusion widening an interval it
// may only tighten, confidence intervals missing the analytic truth
// beyond their advertised rate — streams out as a finding. A campaign
// over a correctly specified system produces zero findings, the
// property the CI smoke job and the stock-model tests pin.
//
// Determinism carries over from the request path: the sweep is a pure
// function of the normalized campaign request — program seeds derive
// from the campaign seed, checks run on a fixed cadence, and results
// are emitted in program order regardless of worker interleaving — so
// identical requests produce byte-identical NDJSON event streams, the
// property cmd/pcload's -campaign workload cross-checks over HTTP.
package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/bayes"
	"repro/internal/campaign/gen"
	"repro/internal/cpu"
	"repro/internal/evlog"
	"repro/internal/xrand"
)

// Check thresholds. The audits must tolerate the service's *advertised*
// slop (intervals miss at the nominal rate, float fusion carries
// rounding) while still catching model misspecification; these
// constants draw that line.
const (
	// MaxFindingsPerProgram caps the findings one program streams; the
	// program event still counts every finding. One broken invariant
	// fires on most programs of a sweep, and streaming thousands of
	// copies would bury the signal (and the log retention) in duplicates.
	MaxFindingsPerProgram = 16
	// coverageSlack widens each audited interval by half a count per
	// side: counts are integers, so truth within half a count of the
	// interval edge is indistinguishable from covered.
	coverageSlack = 0.5
	// grossMissSigma and grossMissFloor define a per-interval gross
	// miss: individual intervals are *allowed* to miss the truth at the
	// nominal rate, so a single miss is only a finding when the truth
	// sits implausibly far outside — beyond grossMissSigma standard
	// errors AND grossMissFloor counts. Ordinary misses are judged in
	// aggregate by the coverage-rate audit.
	grossMissSigma = 12.0
	grossMissFloor = 16.0
	// widthTol is the relative+absolute slack of the never-wider checks
	// (posterior vs prior, fused vs naive): fusion math is float, so
	// exact comparison would indict rounding, not the model.
	widthTol = 1e-9
	// minCoverageChecks gates the sweep-wide coverage-rate finding: the
	// four-sigma binomial bound is meaningless on a handful of trials.
	minCoverageChecks = 50
	// coverageSigmas is the binomial slack of the coverage-rate audit:
	// the observed miss rate must exceed the nominal rate by more than
	// this many binomial standard deviations to be a finding.
	coverageSigmas = 4.0
)

// DefaultMaxCampaigns is the default bound on active campaigns:
// campaigns are heavy (hundreds of measurements each), so it is tighter
// than the session registry's.
const DefaultMaxCampaigns = 4

// Config sizes a registry.
type Config struct {
	// MaxCampaigns bounds *active* campaigns — sweeps still issuing
	// requests into the shared worker pools. Zero means
	// DefaultMaxCampaigns.
	MaxCampaigns int
	// IdleTimeout is how long a campaign may go without client activity
	// (snapshot, attached stream) before the janitor evicts it. Zero
	// means 2 minutes.
	IdleTimeout time.Duration
	// SweepInterval is the janitor's cadence. Zero means 15 seconds;
	// negative disables the janitor (tests drive Sweep directly).
	SweepInterval time.Duration
	// Concurrency is how many programs one campaign checks in parallel
	// (results are still emitted in program order). Zero means 2.
	Concurrency int
	// Invariants supplies the constraint model the inference cross-check
	// attacks each processor with; nil means the built-in library
	// (bayes.Library). Tests inject mis-specified models to prove the
	// campaign catches them — the planted-refutation hook.
	Invariants func(*cpu.Model) bayes.Model
	// Now is the registry's clock; nil means time.Now.
	Now func() time.Time
}

// Registry owns the campaigns of one service instance: the shared
// lifecycle registry plus the request paths campaigns attack. It is
// safe for concurrent use.
type Registry struct {
	*evlog.Registry[*Campaign]
	svc Services
	cfg Config
}

// NewRegistry builds a registry over the given request paths and starts
// the idle-campaign janitor (unless disabled).
func NewRegistry(svc Services, cfg Config) *Registry {
	if cfg.MaxCampaigns <= 0 {
		cfg.MaxCampaigns = DefaultMaxCampaigns
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 2
	}
	if cfg.Invariants == nil {
		cfg.Invariants = bayes.Library
	}
	return &Registry{
		Registry: evlog.NewRegistry[*Campaign](evlog.RegistryConfig{
			Pkg: "campaign", Noun: "campaign", MaxActive: cfg.MaxCampaigns,
			IdleTimeout: cfg.IdleTimeout, SweepInterval: cfg.SweepInterval, Now: cfg.Now,
		}),
		svc: svc,
		cfg: cfg,
	}
}

// Open normalizes req, registers a campaign for it, and starts its
// sweep. The returned campaign is already streaming.
func (r *Registry) Open(req api.CampaignRequest) (*Campaign, error) {
	norm, err := req.Normalized()
	if err != nil {
		return nil, err
	}
	return r.Registry.Open(func(id string) (*Campaign, error) {
		ctx, cancel := context.WithCancel(context.Background())
		return &Campaign{
			ID: id, cfg: norm, reg: r, ctx: ctx, cancel: cancel, state: api.SessionRunning,
			log: evlog.New(norm.Programs*(MaxFindingsPerProgram+1)+16, r.cfg.Now),
		}, nil
	})
}

// Services are the request paths a campaign attacks. The campaign
// depends only on these functions — the server front end wires them to
// the service and planner — so campaign tests can interpose failures.
type Services struct {
	Measure func(ctx context.Context, req api.MeasureRequest) (*api.MeasureResponse, error)
	Infer   func(ctx context.Context, req api.InferRequest) (*api.InferResponse, error)
	Plan    func(ctx context.Context, req api.PlanRequest) (*api.PlanResponse, error)
}

// Campaign is one running (or finished) sweep: a worker pool driving
// the checks program by program, and an append-only event log that
// snapshots and NDJSON streams read from.
type Campaign struct {
	// ID addresses the campaign on the wire.
	ID string

	cfg api.CampaignRequest
	reg *Registry // the request paths and settings it sweeps with

	ctx    context.Context
	cancel context.CancelFunc

	mu            sync.Mutex
	state         string
	failure       string
	programs      int
	measurements  int
	findings      []api.CampaignFinding
	findingsTotal int
	covChecked    int
	covMisses     int

	// log is the event log streams read from. Its retention covers the
	// whole sweep (findings are capped per program), so any attach
	// replays the complete stream — the determinism tests compare full
	// replays.
	log *evlog.Log
}

// progResult is one program's outcome, handed from a worker to the
// in-order emitter.
type progResult struct {
	prog     api.CampaignProgram
	findings []api.CampaignFinding
	err      error
}

// Run executes the sweep: workers process programs concurrently, the
// emitter streams each program's events strictly in index order, so the
// stream is deterministic regardless of scheduling. Every result
// channel is buffered and every index receives exactly one send, so
// neither side can deadlock when the campaign is closed mid-sweep. Run
// returns only after the feeder and every worker have: an early return
// follows close, whose cancelled context stops them promptly.
func (c *Campaign) Run() {
	n := c.cfg.Programs
	results := make([]chan progResult, n)
	for i := range results {
		results[i] = make(chan progResult, 1)
	}
	sem := make(chan struct{}, c.reg.cfg.Concurrency)
	var wg sync.WaitGroup
	defer wg.Wait()
	spawn(&wg, func() {
		for i := 0; i < n; i++ {
			select {
			case <-c.ctx.Done():
				results[i] <- progResult{err: c.ctx.Err()}
				continue
			case sem <- struct{}{}:
			}
			spawn(&wg, func() {
				defer func() { <-sem }()
				results[i] <- c.runProgram(i)
			})
		}
	})

	for i := 0; i < n; i++ {
		res := <-results[i]
		if res.err != nil {
			c.close(api.SessionFailed, res.err.Error())
			return
		}
		events := make([]any, 0, len(res.findings)+1)
		for j := range res.findings {
			if j == MaxFindingsPerProgram {
				break
			}
			f := res.findings[j]
			events = append(events, api.CampaignEvent{Type: api.CampaignEventFinding, Finding: &f})
		}
		prog := res.prog
		prog.Findings = len(res.findings)
		events = append(events, api.CampaignEvent{Type: api.CampaignEventProgram, Program: &prog})
		c.mu.Lock()
		c.programs++
		c.measurements += prog.Measurements
		c.recordFindingsLocked(res.findings)
		c.covChecked += prog.Checked
		c.covMisses += prog.Checked - prog.Covered
		c.mu.Unlock()
		if !c.log.Append(events...) {
			return // closed mid-sweep; the closer wrote the end event
		}
	}

	cov := c.coverage()
	if f, bad := coverageFinding(cov); bad {
		c.mu.Lock()
		c.recordFindingsLocked([]api.CampaignFinding{f})
		c.mu.Unlock()
		c.log.Append(api.CampaignEvent{Type: api.CampaignEventFinding, Finding: &f})
	}
	sum := c.summary()
	c.log.Append(api.CampaignEvent{Type: api.CampaignEventSummary, Summary: &sum})
	c.close(api.SessionDone, "")
}

// spawn runs f on a goroutine wg waits for. Done follows f's return, so
// once wg.Wait returns no goroutine is left in a Campaign method.
func spawn(wg *sync.WaitGroup, f func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		f()
	}()
}

// recordFindingsLocked adds findings to the running totals and the
// snapshot's retained prefix. Callers hold c.mu.
func (c *Campaign) recordFindingsLocked(findings []api.CampaignFinding) {
	c.findingsTotal += len(findings)
	for _, f := range findings {
		if len(c.findings) >= api.MaxSnapshotFindings {
			break
		}
		c.findings = append(c.findings, f)
	}
}

// runProgram generates program i and drives every scheduled check over
// every selected processor, returning the program summary and findings.
func (c *Campaign) runProgram(i int) progResult {
	class := gen.Class(c.cfg.Classes[i%len(c.cfg.Classes)])
	seed := xrand.Mix(c.cfg.Seed, uint64(i))
	if seed == 0 {
		// Measurement normalization canonicalizes seed 0 to the default;
		// clamping here keeps the echoed requests equal to the issued ones.
		seed = 1
	}
	p, err := gen.New(class, seed, c.cfg.Scale)
	if err != nil {
		return progResult{err: fmt.Errorf("campaign: generating program %d: %w", i, err)}
	}
	prog := api.CampaignProgram{
		Index:         i,
		Spec:          p.Spec(),
		Class:         string(class),
		ExpectedInstr: int(p.ExpectedInstr()),
	}
	var findings []api.CampaignFinding
	finding := func(processor, check string, f api.CampaignFinding) {
		f.Program, f.Spec, f.Processor, f.Check = i, prog.Spec, processor, check
		findings = append(findings, f)
	}
	every := func(n int) bool { return n > 0 && i%n == 0 }
	instr, cycles := cpu.EventInstrRetired.String(), cpu.EventCoreCycles.String()

	for _, tag := range c.cfg.Processors {
		model, err := cpu.ModelByTag(tag)
		if err != nil {
			return progResult{err: fmt.Errorf("campaign: %w", err)}
		}
		base := api.MeasureRequest{
			Processor: tag,
			Stack:     c.cfg.Stack,
			Bench:     prog.Spec,
			Pattern:   c.cfg.Pattern,
			Events:    []string{instr, cycles},
			Runs:      c.cfg.Runs,
			Seed:      seed,
			Calibrate: true,
		}
		resp, err := c.reg.svc.Measure(c.ctx, base)
		if err != nil {
			return progResult{err: fmt.Errorf("campaign: measuring %s on %s: %w", prog.Spec, tag, err)}
		}
		prog.Measurements++

		// Coverage audit: does the calibrated interval contain the
		// analytic ground truth? Misses tally toward the sweep-wide rate;
		// only an implausibly distant miss is a finding on its own.
		if est := resp.Accuracy; est != nil {
			prog.Checked++
			truth := float64(resp.Expected)
			if est.Lo-coverageSlack <= truth && truth <= est.Hi+coverageSlack {
				prog.Covered++
			} else {
				dist := math.Abs(est.Corrected - truth)
				sigma := math.Inf(1)
				if est.StdErr > 0 {
					sigma = dist / est.StdErr
				}
				if sigma > grossMissSigma && dist > grossMissFloor {
					finding(tag, api.CheckCIGrossMiss, api.CampaignFinding{
						Sigma: sigma,
						Detail: fmt.Sprintf("calibrated %s interval [%g, %g] misses the analytic count %g by %g counts (%.1f standard errors)",
							est.Event, est.Lo, est.Hi, truth, dist, sigma),
					})
				}
			}
		}

		// Engine divergence: the interpreter must reproduce the compiled
		// engine's response byte for byte (only the echoed engine differs).
		if every(c.cfg.EngineEvery) {
			alt := base
			alt.Engine = api.EngineInterpreter
			resp2, err := c.reg.svc.Measure(c.ctx, alt)
			if err != nil {
				return progResult{err: fmt.Errorf("campaign: re-measuring %s on %s (interpreter): %w", prog.Spec, tag, err)}
			}
			prog.Measurements++
			if detail := engineDivergence(resp, resp2); detail != "" {
				finding(tag, api.CheckEngineDivergence, api.CampaignFinding{Detail: detail})
			}
		}

		// Inference cross-check: jointly infer the measured events under
		// the processor's invariants. A violated residual refutes the
		// model; a posterior interval wider than its prior refutes the
		// solver's own contract.
		if every(c.cfg.InferEvery) {
			if fs, err := c.checkInfer(base, model, instr, cycles); err != nil {
				return progResult{err: err}
			} else {
				for _, f := range fs {
					finding(tag, f.Check, f)
				}
			}
		}

		// Planner cross-check: a single-counter (forced multiplexed) plan
		// must fuse to intervals no wider than its naive per-group ones.
		if every(c.cfg.PlanEvery) {
			if fs, err := c.checkPlan(base, instr, cycles); err != nil {
				return progResult{err: err}
			} else {
				for _, f := range fs {
					finding(tag, f.Check, f)
				}
			}
		}
	}
	return progResult{prog: prog, findings: findings}
}

// checkInfer runs the joint inference over the program's measured
// events with the campaign's invariant set and returns any findings
// (Check set; location fields filled by the caller).
func (c *Campaign) checkInfer(base api.MeasureRequest, model *cpu.Model, instr, cycles string) ([]api.CampaignFinding, error) {
	mi, mc := base, base
	mi.Events = []string{instr}
	mc.Events = []string{cycles}
	mc.Calibrate = false // canonical: calibration estimates instruction overhead only
	item := api.InferItem{
		Inputs:     []api.InferInput{{Measure: &mi}, {Measure: &mc}},
		Processor:  model.Tag,
		Confidence: c.cfg.Confidence,
		// The invariants are passed explicitly (library disabled) so a
		// mis-specified set — the planted-refutation tests — takes the
		// same path as the stock library.
		NoLibrary:   true,
		Constraints: c.reg.cfg.Invariants(model).Restrict([]string{instr, cycles}).Constraints,
	}
	resp, err := c.reg.svc.Infer(c.ctx, api.InferRequest{Items: []api.InferItem{item}})
	if err != nil {
		return nil, fmt.Errorf("campaign: inferring %s on %s: %w", base.Bench, model.Tag, err)
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("campaign: infer returned %d results, want 1", len(resp.Results))
	}
	res := resp.Results[0]
	var findings []api.CampaignFinding
	for _, r := range res.Residuals {
		if !r.Violated {
			continue
		}
		findings = append(findings, api.CampaignFinding{
			Check:      api.CheckInvariantRefuted,
			Constraint: r.Constraint,
			Sigma:      r.Sigma,
			Detail: fmt.Sprintf("invariant %q refuted by the measured events: residual %g (%.1f standard errors)",
				r.Constraint, r.Value, r.Sigma),
		})
	}
	for k, ev := range res.Events {
		pw := res.Prior[k].Hi - res.Prior[k].Lo
		qw := res.Posterior[k].Hi - res.Posterior[k].Lo
		if qw > pw*(1+widthTol)+widthTol {
			findings = append(findings, api.CampaignFinding{
				Check: api.CheckPosteriorWidened,
				Detail: fmt.Sprintf("posterior interval of %s (width %g) wider than its prior (width %g)",
					ev, qw, pw),
			})
		}
	}
	return findings, nil
}

// checkPlan runs a single-counter plan over the program's events and
// returns a finding for every fused interval wider than its naive one.
func (c *Campaign) checkPlan(base api.MeasureRequest, instr, cycles string) ([]api.CampaignFinding, error) {
	m := base
	m.Events = []string{instr, cycles}
	m.Runs, m.Calibrate = 0, false // owned by the planner
	resp, err := c.reg.svc.Plan(c.ctx, api.PlanRequest{
		Measure:        m,
		TargetRelWidth: c.cfg.TargetRelWidth,
		Confidence:     c.cfg.Confidence,
		// One counter forces the multiplexed schedule, so fusion has real
		// work to do and the never-wider promise is non-trivially tested.
		Counters: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: planning %s on %s: %w", base.Bench, base.Processor, err)
	}
	var findings []api.CampaignFinding
	for _, est := range resp.Estimates {
		nw := est.Naive.Hi - est.Naive.Lo
		fw := est.Fused.Hi - est.Fused.Lo
		if fw > nw*(1+widthTol)+widthTol {
			findings = append(findings, api.CampaignFinding{
				Check: api.CheckFusedWiderThanNaive,
				Detail: fmt.Sprintf("fused interval of %s (width %g) wider than the naive one (width %g)",
					est.Event, fw, nw),
			})
		}
	}
	return findings, nil
}

// engineDivergence compares two measurement responses that must be
// byte-identical up to the echoed engine selector, returning an empty
// string when they agree and a description when they do not.
func engineDivergence(compiled, interp *api.MeasureResponse) string {
	a, b := *compiled, *interp
	a.Request.Engine, b.Request.Engine = "", ""
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	if erra != nil || errb != nil {
		return fmt.Sprintf("marshaling responses for comparison: %v, %v", erra, errb)
	}
	if bytes.Equal(ja, jb) {
		return ""
	}
	return fmt.Sprintf("compiled and interpreter responses differ: %s vs %s", ja, jb)
}

// coverageFinding turns a completed sweep's coverage audit into a
// finding when the observed miss rate exceeds the binomial bound.
func coverageFinding(cov api.CoverageInfo) (api.CampaignFinding, bool) {
	if cov.N < minCoverageChecks || cov.Rate <= cov.Bound {
		return api.CampaignFinding{}, false
	}
	return api.CampaignFinding{
		Program: -1, // sweep-wide: no single program to blame
		Check:   api.CheckCoverageRate,
		Sigma:   (cov.Rate - cov.Nominal) / math.Sqrt(cov.Nominal*(1-cov.Nominal)/float64(cov.N)),
		Detail: fmt.Sprintf("confidence intervals missed the analytic truth %d/%d times (rate %.4f, nominal %.4f, bound %.4f)",
			cov.Misses, cov.N, cov.Rate, cov.Nominal, cov.Bound),
	}, true
}

// coverage assembles the sweep-wide audit from the running tallies.
func (c *Campaign) coverage() api.CoverageInfo {
	c.mu.Lock()
	checked, misses := c.covChecked, c.covMisses
	c.mu.Unlock()
	nominal := 1 - c.cfg.Confidence
	cov := api.CoverageInfo{N: checked, Misses: misses, Nominal: nominal, Bound: 1}
	if checked > 0 {
		cov.Rate = float64(misses) / float64(checked)
		cov.Bound = nominal + coverageSigmas*math.Sqrt(nominal*(1-nominal)/float64(checked))
	}
	return cov
}

// summary assembles the sweep totals.
func (c *Campaign) summary() api.CampaignSummary {
	cov := c.coverage()
	c.mu.Lock()
	defer c.mu.Unlock()
	return api.CampaignSummary{
		Programs:     c.programs,
		Measurements: c.measurements,
		Findings:     c.findingsTotal,
		Coverage:     cov,
	}
}

// End ends the campaign with the reason (deleted, evicted, drained) as
// its end event; see close.
func (c *Campaign) End(reason string) { c.close(reason, "") }

// close ends the campaign with a final end event carrying the reason.
// Idempotent: the first closer (sweep completion, delete, eviction,
// drain, failure) wins — the log's End gate decides the race — and the
// campaign's context is cancelled so in-flight checks abort. The state
// is set under c.mu together with the end event, so a reader that saw
// the end event snapshots the final state.
func (c *Campaign) close(state, failure string) {
	c.mu.Lock()
	ended := c.log.End(api.CampaignEvent{Type: api.CampaignEventEnd, Reason: state, Error: failure})
	if ended {
		c.state = state
		c.failure = failure
	}
	c.mu.Unlock()
	if ended {
		c.cancel()
	}
}

// Log is the campaign's event log, which snapshots and NDJSON streams
// read from.
func (c *Campaign) Log() *evlog.Log { return c.log }

// Config returns the normalized campaign configuration.
func (c *Campaign) Config() api.CampaignRequest { return c.cfg }

// Snapshot reports the campaign's progress and retained findings.
func (c *Campaign) Snapshot() api.CampaignSnapshot {
	c.log.Touch()
	cov := c.coverage()
	c.mu.Lock()
	defer c.mu.Unlock()
	return api.CampaignSnapshot{
		ID:            c.ID,
		Config:        c.cfg,
		State:         c.state,
		Programs:      c.programs,
		Measurements:  c.measurements,
		Findings:      append([]api.CampaignFinding(nil), c.findings...),
		FindingsTotal: c.findingsTotal,
		Coverage:      cov,
	}
}
