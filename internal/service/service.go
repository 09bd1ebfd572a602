// Package service is the concurrent measurement backend behind
// cmd/pcserved. It schedules api.MeasureRequests onto a sharded pool of
// pre-built measurement systems — one shard per (processor, stack, TSC)
// configuration, several interchangeable worker systems per shard — and
// layers three mechanisms on top:
//
//   - Determinism. Workers are Reset to the just-booted state before
//     every request, so a response is a pure function of the normalized
//     request: concurrent requests on the same shard return
//     byte-identical bodies no matter which worker serves them or how
//     the pool interleaves.
//   - Calibration caching. The fixed-error estimate of a (shard,
//     pattern, mode, opt) configuration is computed once and reused;
//     warm requests skip the paper's 31-run null-benchmark calibration
//     entirely.
//   - Request coalescing. Identical normalized requests that arrive
//     while one is executing join its result instead of re-measuring —
//     sound precisely because responses are deterministic.
package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/accuracy"
	"repro/internal/api"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/kernel"
	stackpkg "repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Config sizes the service.
type Config struct {
	// WorkersPerShard is how many interchangeable systems each
	// (processor, stack, TSC) shard pools. Zero means 2.
	WorkersPerShard int
	// CalibrationRuns is the sample count of a calibration estimate.
	// Zero means 31, a typical odd count for a stable median.
	CalibrationRuns int
	// MaxConcurrentExperiments bounds simultaneous paper-experiment
	// runs, which are far heavier than measurements. Zero means 2.
	MaxConcurrentExperiments int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = 2
	}
	if c.CalibrationRuns <= 0 {
		c.CalibrationRuns = 31
	}
	if c.MaxConcurrentExperiments <= 0 {
		c.MaxConcurrentExperiments = 2
	}
	return c
}

// Service schedules measurement requests onto pooled systems. It is
// safe for concurrent use.
type Service struct {
	cfg Config

	mu      sync.Mutex
	shards  map[string]*shard
	flight  *Flight[*api.MeasureResponse]
	aflight *Flight[*api.AnalyzeResult]
	iflight *Flight[*api.InferResult]
	pflight *Flight[*api.PlanResponse]

	expSem chan struct{}

	// interp and compiled are the two execution engines requests may
	// pin. The compiled engine (the default) is shared by every shard so
	// its compile cache — like the calibration cache — is warmed once
	// per program, not once per worker.
	interp   *engine.Interpreter
	compiled *engine.Compiled

	calHits   atomic.Uint64
	calMisses atomic.Uint64
	pins      atomic.Uint64
}

// New returns a service with empty pools; shards are built on first
// use.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	return &Service{
		cfg:      cfg,
		shards:   make(map[string]*shard),
		flight:   NewFlight[*api.MeasureResponse](),
		aflight:  NewFlight[*api.AnalyzeResult](),
		iflight:  NewFlight[*api.InferResult](),
		pflight:  NewFlight[*api.PlanResponse](),
		expSem:   make(chan struct{}, cfg.MaxConcurrentExperiments),
		interp:   engine.NewInterpreter(),
		compiled: engine.NewCompiled(engine.NewCache(engine.DefaultCacheCapacity)),
	}
}

// runnerFor maps a normalized request's engine selector to the
// service's engine instance ("" is the canonicalized compiled default).
func (s *Service) runnerFor(name string) cpu.Runner {
	if name == api.EngineInterpreter {
		return s.interp
	}
	return s.compiled
}

// Measure serves one measurement request. The response for a given
// normalized request is deterministic: callers (and the coalescing
// layer) may treat it as an immutable value.
func (s *Service) Measure(ctx context.Context, req api.MeasureRequest) (*api.MeasureResponse, error) {
	return serve(ctx, req, req.Trace, func(ctx context.Context, norm api.MeasureRequest) (*api.MeasureResponse, error) {
		return s.flight.Do(ctx, norm.Key(), func() (*api.MeasureResponse, error) {
			return s.execute(ctx, norm)
		})
	})
}

// Plan serves one plan request through the same request path as
// Measure, with execute (the planner's) running a normalized request
// once per flight. The service owns the plan flight so its coalescing
// counts land in the one Stats snapshot both operator views render.
func (s *Service) Plan(ctx context.Context, req api.PlanRequest, execute func(context.Context, api.PlanRequest) (*api.PlanResponse, error)) (*api.PlanResponse, error) {
	return serve(ctx, req, req.Trace, func(ctx context.Context, norm api.PlanRequest) (*api.PlanResponse, error) {
		return s.pflight.Do(ctx, norm.Key(), func() (*api.PlanResponse, error) {
			return execute(ctx, norm)
		})
	})
}

// execute runs a normalized request on a worker from its shard. Spans
// land on the flight leader's trace: ctx here is always the leader's.
func (s *Service) execute(ctx context.Context, norm api.MeasureRequest) (*api.MeasureResponse, error) {
	sh, sys, err := s.acquire(ctx, norm, false)
	if err != nil {
		return nil, err
	}
	defer sh.checkin(sys)

	var cal *core.Calibration
	if norm.Calibrate {
		got, err := s.calibration(ctx, sh, norm, sys)
		if err != nil {
			return nil, err
		}
		cal = &got
	}

	creq, err := norm.Build()
	if err != nil {
		return nil, err
	}
	creq.Runner = s.runnerFor(norm.Engine)

	engineName := norm.Engine
	if engineName == "" {
		engineName = api.EngineCompiled
	}
	tr := telemetry.FromContext(ctx)
	sp := tr.Start(telemetry.SpanEngineRun).Annotate("engine", engineName)

	// A reset system measures byte-identically to a fresh one, which is
	// what makes pooled workers interchangeable.
	sys.Reset()
	resp := &api.MeasureResponse{
		Request: norm,
		Deltas:  make([][]int64, 0, norm.Runs),
		Errors:  make([]int64, 0, norm.Runs),
	}
	for i := 0; i < norm.Runs; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		creq.Seed = norm.Seed + uint64(i)
		m, err := sys.Measure(creq)
		if err != nil {
			return nil, err
		}
		resp.Expected = m.Expected
		resp.Deltas = append(resp.Deltas, append([]int64(nil), m.Deltas...))
		resp.Errors = append(resp.Errors, m.Error(0, creq.Mode))
	}
	sp.End()

	sp = tr.Start(telemetry.SpanCorrect)
	resp.Summary = summarize(resp.Errors)
	if cal != nil {
		resp.Calibration = &api.CalibrationInfo{
			Offset:   cal.Offset,
			Strategy: cal.Strategy,
			Samples:  cal.Samples,
		}
		resp.CalibratedErrors = make([]float64, len(resp.Errors))
		for i, e := range resp.Errors {
			resp.CalibratedErrors[i] = cal.Apply(e)
		}
	}
	resp.Accuracy = annotate(resp, cal)
	sp.End()
	return resp, nil
}

// annotate builds the accuracy annotation every measurement response
// carries: the corrected estimate of the first counter's count, with a
// dispersion confidence interval, overhead-corrected when the request
// was calibrated. The annotation is pure arithmetic on values already
// in the response, so it cannot perturb determinism.
func annotate(resp *api.MeasureResponse, cal *core.Calibration) *api.EstimateInfo {
	counts := make([]float64, len(resp.Deltas))
	for i, row := range resp.Deltas {
		counts[i] = float64(row[0])
	}
	overhead := 0.0
	if cal != nil {
		overhead = cal.Offset
	}
	est, err := accuracy.FromRuns(counts, overhead, accuracy.DefaultConfidence)
	if err != nil {
		return nil
	}
	info := api.EstimateInfoFrom(resp.Request.Events[0], est)
	return &info
}

// ErrUnknownExperiment reports an experiment ID outside the registry.
var ErrUnknownExperiment = errors.New("service: unknown experiment")

// Experiment runs one paper experiment. Experiments build their own
// systems and are independent of the measurement pools; a semaphore
// keeps a burst of them from starving measurements of CPU.
func (s *Service) Experiment(ctx context.Context, req api.ExperimentRequest) (*api.ExperimentResponse, error) {
	title := experiments.Title(req.ID)
	if title == "" {
		return nil, fmt.Errorf("%w %q (have %s)", ErrUnknownExperiment, req.ID, strings.Join(experiments.IDs(), ", "))
	}
	if req.Runs < 0 || req.Runs > api.MaxExperimentRuns {
		return nil, fmt.Errorf("%w: experiment runs %d out of range 0-%d", api.ErrBadRequest, req.Runs, api.MaxExperimentRuns)
	}
	select {
	case s.expSem <- struct{}{}:
		defer func() { <-s.expSem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	cfg := experiments.QuickConfig
	if req.Runs > 0 {
		cfg.Runs = req.Runs
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	res, err := experiments.Run(req.ID, cfg)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		return nil, err
	}
	return &api.ExperimentResponse{ID: req.ID, Title: title, Text: b.String()}, nil
}

// Health reports pool and counter state: the JSON rendering of the
// Stats snapshot (the same snapshot /metrics renders as exposition, so
// the two views cannot disagree).
func (s *Service) Health() api.HealthResponse {
	return HealthFrom(s.Stats())
}

// HealthFrom renders a Stats snapshot as the /healthz wire shape.
func HealthFrom(st Stats) api.HealthResponse {
	h := api.HealthResponse{
		Status:       "ok",
		Shards:       make([]api.ShardHealth, 0, len(st.Shards)),
		Calibrations: st.Calibrations,
		Stats:        st.ServiceStats,
	}
	if total := st.CalibrationHits + st.CalibrationMisses; total > 0 {
		h.CalibrationHitRate = float64(st.CalibrationHits) / float64(total)
	}
	h.Engines = api.EngineHealth{
		InterpreterRuns:       st.Engines.InterpreterRuns,
		CompiledRuns:          st.Engines.CompiledRuns,
		CompileCacheSize:      st.Engines.CacheSize,
		CompileCacheCapacity:  st.Engines.CacheCapacity,
		CompileCacheHits:      st.Engines.CacheHits,
		CompileCacheMisses:    st.Engines.CacheMisses,
		CompileCacheEvictions: st.Engines.CacheEvictions,
	}
	if total := st.Engines.CacheHits + st.Engines.CacheMisses; total > 0 {
		h.Engines.CompileCacheHitRate = float64(st.Engines.CacheHits) / float64(total)
	}
	for _, sh := range st.Shards {
		h.Shards = append(h.Shards, api.ShardHealth{
			Key:          sh.Key,
			Workers:      sh.Workers,
			Idle:         sh.Idle,
			InUse:        sh.InUse,
			Calibrations: sh.Calibrations,
		})
	}
	return h
}

// shard returns (building if needed) the pool for a request's
// configuration. The service mutex only guards the map insertion;
// booting the worker systems happens outside it, so a first-touch
// shard build never stalls traffic to other shards.
func (s *Service) shard(norm api.MeasureRequest) (*shard, error) {
	key := norm.ShardKey()
	s.mu.Lock()
	sh, ok := s.shards[key]
	if !ok {
		sh = &shard{
			key:     key,
			proc:    norm.Processor,
			stack:   norm.Stack,
			withTSC: !norm.NoTSC,
			engine:  s.compiled,
			size:    s.cfg.WorkersPerShard,
			workers: make(chan *stackpkg.System, s.cfg.WorkersPerShard),
			cal:     make(map[string]*calEntry),
		}
		s.shards[key] = sh
	}
	s.mu.Unlock()

	sh.init.Do(sh.build)
	if sh.initErr != nil {
		return nil, sh.initErr
	}
	return sh, nil
}

// acquire checks a worker out of the shard serving norm's configuration
// (building the shard on first touch), waiting for one to come free or
// ctx to end, under a pool-acquire span; pin marks a long-lived holder.
func (s *Service) acquire(ctx context.Context, norm api.MeasureRequest, pin bool) (*shard, *stackpkg.System, error) {
	sh, err := s.shard(norm)
	if err != nil {
		return nil, nil, err
	}
	sp := telemetry.StartSpan(ctx, telemetry.SpanPoolAcquire).Annotate("shard", sh.key)
	if pin {
		sp.Annotate("pin", "true")
	}
	sys, err := sh.checkout(ctx)
	sp.End()
	return sh, sys, err
}

// shard is one pool of interchangeable systems for a (processor, stack,
// TSC) configuration, with its calibration cache.
type shard struct {
	key     string
	proc    string
	stack   string
	withTSC bool
	engine  cpu.Runner
	size    int
	workers chan *stackpkg.System

	init    sync.Once
	initErr error

	calMu sync.Mutex
	cal   map[string]*calEntry
}

// calEntry is one cached calibration, computed at most once.
type calEntry struct {
	once sync.Once
	cal  core.Calibration
	err  error
}

// build boots the shard's worker systems. Run under init.Do: requests
// for the shard wait here, requests for other shards are unaffected.
func (sh *shard) build() {
	model, err := cpu.ModelByTag(sh.proc)
	if err != nil {
		sh.initErr = err
		return
	}
	opts := stackpkg.Options{WithTSC: sh.withTSC, Governor: kernel.Performance, Engine: sh.engine}
	for i := 0; i < sh.size; i++ {
		sys, err := stackpkg.New(model, sh.stack, opts)
		if err != nil {
			sh.initErr = err
			return
		}
		sh.workers <- sys
	}
}

// checkout takes a worker, waiting for one to come free.
func (sh *shard) checkout(ctx context.Context) (*stackpkg.System, error) {
	select {
	case sys := <-sh.workers:
		return sys, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// checkin returns a worker to the pool.
func (sh *shard) checkin(sys *stackpkg.System) {
	sh.workers <- sys
}

// calCount returns how many calibrations the shard has cached.
func (sh *shard) calCount() int {
	sh.calMu.Lock()
	defer sh.calMu.Unlock()
	return len(sh.cal)
}

// calibration returns the cached fixed-error estimate for the request's
// configuration, computing it on the caller's worker if this is the
// first request to need it. Computing on the caller's own worker (not a
// second checkout) keeps a size-1 pool deadlock-free; determinism makes
// the result independent of which worker ran it.
func (s *Service) calibration(ctx context.Context, sh *shard, norm api.MeasureRequest, sys *stackpkg.System) (core.Calibration, error) {
	sp := telemetry.StartSpan(ctx, telemetry.SpanCalibrate)
	key := norm.CalibrationKey()
	sh.calMu.Lock()
	e, ok := sh.cal[key]
	if !ok {
		e = &calEntry{}
		sh.cal[key] = e
	}
	sh.calMu.Unlock()

	hit := true
	e.once.Do(func() {
		hit = false
		s.calMisses.Add(1)
		pattern, err := core.PatternByCode(norm.Pattern)
		if err != nil {
			e.err = err
			return
		}
		mode, err := api.ParseMode(norm.Mode)
		if err != nil {
			e.err = err
			return
		}
		sys.Reset()
		e.cal, e.err = core.CalibrateNull(
			sys.Kernel, sys.Infra, pattern, mode,
			compiler.OptLevel(norm.Opt), s.cfg.CalibrationRuns, calSeed(key))
	})
	if hit {
		s.calHits.Add(1)
		sp.Annotate("cache", "hit").End()
	} else {
		sp.Annotate("cache", "miss").End()
	}
	if e.err != nil {
		// Leave the failed entry poisoned rather than retrying: the
		// computation is deterministic, so a retry would fail the same
		// way.
		return core.Calibration{}, e.err
	}
	return e.cal, nil
}

// calSeed derives the deterministic calibration seed from the cache
// key, so every worker (and every service instance) computes the same
// estimate.
func calSeed(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64() | 1 // never zero
}

// summarize condenses per-run errors deterministically.
func summarize(errs []int64) api.Summary {
	if len(errs) == 0 {
		return api.Summary{}
	}
	sum := api.Summary{Min: errs[0], Max: errs[0]}
	var total float64
	for _, e := range errs {
		total += float64(e)
		if e < sum.Min {
			sum.Min = e
		}
		if e > sum.Max {
			sum.Max = e
		}
	}
	sum.Mean = total / float64(len(errs))
	sum.Median = stats.MedianInt64(errs)
	return sum
}
