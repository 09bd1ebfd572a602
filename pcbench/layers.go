package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"time"

	"repro/internal/api"
)

// perLayer is the traced run: one set-up, an untraced phase that the
// program's own counters are read around, a traced phase timed by the
// handler wrappers and the program's span blocks, and a direct replay
// of the traced /measure requests through core.Measure.
func perLayer(cfg runConfig, rep *report) error {
	wl := cfg.wl
	client := newClient()
	defer client.CloseIdleConnections()
	timers := newHandlerTimers()
	start := time.Now()
	f, err := bootFleet(wl, timers)
	if err != nil {
		return err
	}
	defer f.close()
	warm := runPhase("warm-up", client, f.base, wl, 0, stopRule{end: wl.warmup}, false, nil)
	rep.phase(warm)
	fmt.Fprintf(rep.w, "setup: %.3fs\n", time.Since(start).Seconds())

	w := verifyWindow(wl, cfg.seed)
	c0, err := scrape(client, f)
	if err != nil {
		return err
	}
	r0 := readRuntime()
	untraced := runPhase("untraced", client, f.base, wl, wl.warmup, cfg.timedRule(), false, w.contains)
	r1 := readRuntime()
	c1, err := scrape(client, f)
	if err != nil {
		return err
	}
	rep.phase(untraced)

	timers.enabled.Store(true)
	traced := runPhase("traced", client, f.base, wl, wl.warmup, stopRule{minDur: cfg.seconds, maxDur: cfg.seconds}, true, func(int) bool { return true })
	timers.enabled.Store(false)
	rep.phase(traced)

	layerSpans(rep, account(traced.outcomes, wl, f, timers))
	rep.set("trace.overhead_share", "ratio", 1-ratio(traced.blockThroughput(), untraced.blockThroughput()))
	programCounters(rep, c0, c1, untraced)
	rep.set("runtime.gc_cpu_share", "ratio", ratio(r1.gcCPU-r0.gcCPU, r1.totalCPU-r0.totalCPU))
	frontRouting(rep, f, untraced, wl)
	sessions(rep, untraced)
	_, p99 := kindLatency(rep, untraced, wl, kindMeasure)
	rep.set("measure_p99_ms", "ms", p99)
	setLatencies(rep, untraced, wl, kindAnalyze, kindPlan, kindInfer, kindSession)
	a1, f1 := untraced.counts()
	a2, f2 := traced.counts()
	rep.set("error_rate", "ratio", ratio(float64(f1+f2), float64(a1+a2)))

	replayMeasures(rep, wl, traced, cfg.seconds/2)

	pairCheck(rep, untraced, wl)
	pairCheck(rep, traced, wl)
	kept := w.collect(untraced)
	crossCheck(rep, kept, w.collect(traced))
	return verifyAgainstReference(rep, client, cfg, f, w, kept)
}

// layerSpans sets the metrics of the traced phase's accounting.
func layerSpans(rep *report, a *accounting) {
	fmt.Fprintf(rep.w, "traced accounting: %d requests matched, %d unmatched\n", a.requests, a.unmatched)
	if a.requests == 0 || a.unmatched*20 > a.requests {
		rep.problems = append(rep.problems, fmt.Sprintf("traced accounting matched %d requests and missed %d", a.requests, a.unmatched))
	}
	for _, name := range spanMetric {
		rep.set(name, "us", a.perRequestUs(a.spans[name]))
	}
	rep.set("http.transport_us", "us", a.perRequestUs(a.transport))
	rep.set("cluster.front_self_us", "us", a.perRequestUs(a.frontSelf))
	rep.set("server.handle_us", "us", a.perRequestUs(a.handle))
	rep.set("server.self_us", "us", a.perRequestUs(a.serverSelf))
	rep.set("trace.unaccounted_share", "ratio", a.unaccountedShare())
	fmt.Fprintf(rep.w, "traced round trip: %.2fus per request\n", a.perRequestUs(a.roundTrip))
}

// programCounters sets the metrics read from the nodes' /healthz and
// /metrics around the untraced phase.
func programCounters(rep *report, c0, c1 counters, p *phase) {
	d := c1.sub(c0)
	n := float64(p.succeeded())
	rep.set("service.coalesced_share", "ratio", ratio(d.followers, d.leaders+d.followers))
	// Calibration misses happen during set-up; the rate is since boot.
	rep.set("service.calibration_hit_rate", "ratio", ratio(c1.calHits, c1.calHits+c1.calMisses))
	rep.set("engine.compile_cache_hit_rate", "ratio", ratio(d.cacheHits, d.cacheHits+d.cacheMisses))
	rep.set("engine.compile_misses_per_req", "1/req", ratio(d.cacheMisses, n))
	rep.set("engine.compile_evictions_per_req", "1/req", ratio(d.evictions, n))
	rep.set("engine.runs_per_req", "1/req", ratio(d.engineRuns, n))
	rep.set("server.encode_us", "us", ratio(d.encodeSum, d.encodeCount)*1e6)
	rep.set("cluster.retry_rate", "ratio", ratio(d.retried, d.proxied))
}

// frontRouting sets the routing metrics from the X-Pcfront-* headers of
// the untraced phase's keyed responses.
func frontRouting(rep *report, f *fleet, p *phase, wl *workload) {
	var keyed, owner, attempts, hedged float64
	byBackend := make(map[string]float64)
	for i := range p.outcomes {
		o := &p.outcomes[i]
		if !o.ok || o.backend == "" {
			continue
		}
		keyed++
		attempts += float64(o.attempts)
		if o.hedged {
			hedged++
		}
		byBackend[o.backend]++
		key, err := api.RequestKeyForPath(o.kind.path(), wl.at(o.idx).body)
		if n := f.front.Cluster().Owner(key); err == nil && n != nil && n.Name == o.backend {
			owner++
		}
	}
	var most float64
	for _, c := range byBackend {
		most = max(most, c)
	}
	rep.set("cluster.owner_share", "ratio", ratio(owner, keyed))
	rep.set("cluster.attempts_per_req", "1/req", ratio(attempts, keyed))
	rep.set("cluster.hedge_rate", "ratio", ratio(hedged, keyed))
	rep.set("cluster.backend_max_share", "ratio", ratio(most, keyed))
}

// sessions sets the monitoring split of the untraced phase's sessions.
func sessions(rep *report, p *phase) {
	var n, open, stream float64
	for i := range p.outcomes {
		if o := &p.outcomes[i]; o.ok && o.kind == kindSession {
			n++
			open += float64(o.open) / 1e6
			stream += float64(o.stream) / 1e6
		}
	}
	rep.set("monitor.open_ms", "ms", ratio(open, n))
	rep.set("monitor.stream_ms", "ms", ratio(stream, n))
}

// replayMeasures replays the traced phase's /measure requests through
// core.Measure, in stream order, for up to budget.
func replayMeasures(rep *report, wl *workload, traced *phase, budget time.Duration) {
	var outs []*outcome
	for i := range traced.outcomes {
		if o := &traced.outcomes[i]; o.ok && o.kind == kindMeasure {
			outs = append(outs, o)
		}
	}
	sort.Slice(outs, func(a, b int) bool { return outs[a].idx < outs[b].idx })
	rp := newReplayer()
	deadline := time.Now().Add(budget)
	for i, o := range outs {
		if time.Now().After(deadline) {
			break
		}
		rep.verification(1)
		if err := rp.replay(wl.at(o.idx).body, o.body, i%4 == 0); err != nil {
			rep.fail("replaying #%d: %v", o.idx, err)
		}
	}
	for _, m := range rp.mismatches {
		rep.fail("replay: %s", m)
	}
	fmt.Fprintf(rep.w, "direct replay: %d requests, %d core.Measure calls timed, %d with allocations, %d mismatches\n",
		rp.checked, rp.times.calls, rp.allocs.calls, len(rp.mismatches))
	t, a := &rp.times, &rp.allocs
	rep.set("stack.setup_us", "us", t.per(t.setup, 1e3))
	rep.set("core.harness_build_us", "us", t.per(t.harness, 1e3))
	rep.set("engine.run_us", "us", t.per(t.run, 1e3))
	rep.set("core.extract_us", "us", t.per(t.extract, 1e3))
	rep.set("stack.setup_alloc_kb", "KiB", a.per(a.setup, 1024))
	rep.set("core.harness_alloc_kb", "KiB", a.per(a.harness, 1024))
	rep.set("engine.run_alloc_kb", "KiB", a.per(a.run, 1024))
}

// crossCheck requires each window entry's traced answer, trace block
// stripped, to equal its untraced answer.
func crossCheck(rep *report, untraced, traced map[int]outcome) {
	compared := 0
	for idx, t := range traced {
		u, ok := untraced[idx]
		if !ok || !u.ok || !t.ok {
			continue
		}
		want := u.digest
		if u.kind.traceable() {
			stripped, err := stripTrace(u.body)
			if err != nil {
				rep.fail("untraced #%d: %v", idx, err)
				continue
			}
			want = sha256.Sum256(stripped)
		}
		compared++
		if t.digest != want {
			rep.fail("traced #%d answered differently from its untraced copy once the trace block is stripped", idx)
		}
	}
	fmt.Fprintf(rep.w, "traced vs untraced: %d window entries compared\n", compared)
}
