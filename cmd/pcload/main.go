// Command pcload replays a mixed measurement workload against a
// running pcserved and reports throughput, latency percentiles, and —
// because pcserved's responses are deterministic — a cross-check that
// every configuration returned one consistent body.
//
// The default mix drives four shards (K8/pc, K8/pm, CD/pc, CD/PHpm)
// concurrently with a spread of benchmarks and seeds. With -calibrate,
// every request asks for calibration, and the report splits each
// configuration's first request (cold: pays for calibration) from the
// rest (warm: served from the calibration cache), making the cache's
// effect visible from the client side.
//
// With -analyze, requests go to the batched /analyze endpoint instead,
// rotating through the error models (plain counting, duet pairing,
// multiplexed estimation, sampling) so a load run exercises the whole
// accuracy layer; the determinism cross-check applies unchanged.
//
// Every workload runs on one pair engine: a list of shots fired through
// one worker pool, one determinism map grouping the answers by request
// identity, and one report (count and failures, elapsed, throughput,
// latency pooled and per endpoint) around the workload's own lines.
// -n sets the workload's size; without it each workload keeps its
// default (200 requests; 4 sessions, 12 plans, 18 infers, 6 campaigns).
//
// With -monitor, the workload shifts from request/response to
// continuous monitoring: pcload opens -n streaming sessions in
// identical-configuration pairs, consumes every NDJSON stream to its
// end event, and cross-checks that paired sessions streamed
// byte-identical sample series — the determinism contract extended to
// the stateful session layer.
//
// With -plan, requests go to the planning layer: accuracy-targeted
// /plan requests issued in identical pairs, asserting that identical
// plans return byte-identical bodies, that every fused interval is at
// most its naive multiplexed interval, and that plans attain their
// CI-width targets under load.
//
// With -infer, requests go to the constraint-graph inference layer:
// /infer requests issued in identical pairs — measured inputs under
// the built-in invariant library, raw inputs under explicit
// constraints, and deliberately inconsistent inputs — asserting
// byte-identical responses, posterior intervals never wider than the
// priors, and residual verdicts matching each variant.
//
// With -engine, every configuration in the mix is measured twice —
// once pinned to the interpreter engine and once to the compiled
// engine — concurrently, and the responses must be byte-identical
// (after clearing the echoed engine selector), as must every repeat
// of the configuration on either engine: the in-process cross-engine
// conformance suite, exercised over the wire against a live server.
//
// With -campaign, the workload turns the server against itself:
// pcload opens -n adversarial counter-validation campaigns
// (POST /campaigns) in identical-configuration pairs, each sweeping
// -programs generated programs through the measurement, inference,
// and planning layers, consumes every NDJSON stream to its end event,
// and fails the run if paired campaigns diverge byte-for-byte or if
// any campaign produces a finding — the stock models must survive
// their own attack suite. It runs at most 4 campaigns at once
// (campaign.DefaultMaxCampaigns, a default pcserved's limit), whatever
// -c says. See docs/CAMPAIGNS.md.
//
// With -mixed, every request rotates through /measure, /analyze,
// /plan, and /infer, and the report splits latency percentiles per
// endpoint (one pooled line plus one p50/p90/p99 line per endpoint),
// so the cheap endpoints don't hide the expensive ones.
//
// With -trace, every configuration is driven as a traced+untraced
// pair across all four endpoints: the traced response must carry a
// span block drawn from the telemetry catalogue, the untraced one must
// not, and the two bodies must be byte-identical once the trace block
// is stripped — the client-side check of the observability contract
// (docs/OBSERVABILITY.md).
//
// With -cluster, -addr names a pcfront cluster front end instead of a
// single node: the mixed rotation is driven through the proxy, then
// every distinct request is re-issued once against the -direct node
// and the bodies compared byte for byte — the cluster contract (an
// N-node fleet is byte-identical to one node) proven from the client
// side, including under node kill and restart. The report adds the
// routing view (attempts, hedge and retry rates, and the per-backend
// winner distribution from the X-Pcfront-* headers, the fleet state
// from the front's /healthz) and the encode-stage share of the direct
// node's /measure p99, the measurement behind the pooled-encoder
// decision in docs/CLUSTER.md.
//
// -cluster and -trace compose: together they drive the mixed rotation
// as stitched-trace checks through the proxy. Every traced response
// must carry one coherent tree — the front's route and forward spans
// on top (drawn from the cluster-tier span catalogue), the backend's
// own trace nested underneath shape-identical to a direct traced
// answer from the -direct node — and stripping the trace block must
// leave the body byte-identical across traced/untraced and
// front/direct. See docs/OBSERVABILITY.md.
//
// Usage:
//
//	pcload -addr http://localhost:7090 -n 200 -c 8 -calibrate
//	pcload -addr http://localhost:7090 -mix "K8/pc,CD/PLpm" -n 100 -c 4
//	pcload -addr http://localhost:7090 -n 100 -c 4 -analyze
//	pcload -addr http://localhost:7090 -monitor -n 8 -steps 64
//	pcload -addr http://localhost:7090 -plan -n 24 -c 4
//	pcload -addr http://localhost:7090 -infer -n 24 -c 4
//	pcload -addr http://localhost:7090 -engine -n 64 -c 8
//	pcload -addr http://localhost:7090 -campaign -n 6 -programs 4
//	pcload -addr http://localhost:7090 -mixed -n 64 -c 8
//	pcload -addr http://localhost:7090 -trace -n 32 -c 4
//	pcload -addr http://localhost:7080 -cluster -direct http://localhost:7090 -n 64 -c 8
//	pcload -addr http://localhost:7080 -cluster -trace -direct http://localhost:7090 -n 32 -c 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// options are pcload's flags after the workload has been resolved.
type options struct {
	workload          string // "" (measure), analyze, monitor, plan, infer, engine, campaign, mixed, trace, cluster, cluster-trace
	addr, direct, mix string
	n, c, runs, seeds int
	steps, window     int
	programs          int
	calibrate         bool
}

// defaultN is each workload's size when -n is not given.
var defaultN = map[string]int{"monitor": 4, "plan": 12, "infer": 18, "campaign": 6}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "http://localhost:7090", "pcserved base URL")
	flag.IntVar(&o.n, "n", 200, "workload size: requests, or sessions/plans/infers/campaigns (defaults 4/12/18/6); paired workloads round up to pairs")
	flag.IntVar(&o.c, "c", 8, "concurrent client workers")
	flag.StringVar(&o.mix, "mix", "K8/pc,K8/pm,CD/pc,CD/PHpm", "comma-separated processor/stack pairs")
	flag.IntVar(&o.runs, "runs", 3, "measurement runs per request")
	flag.BoolVar(&o.calibrate, "calibrate", false, "request calibration on every measurement")
	flag.IntVar(&o.seeds, "seeds", 8, "distinct seeds per configuration (spread defeats coalescing)")
	flag.IntVar(&o.steps, "steps", 32, "samples per monitoring session with -monitor")
	flag.IntVar(&o.window, "window", 8, "samples per window with -monitor")
	flag.IntVar(&o.programs, "programs", 4, "generated programs per campaign with -campaign")
	flag.StringVar(&o.direct, "direct", "", "direct pcserved base URL the -cluster cross-check compares against")
	workloads := []struct{ name, usage string }{
		{"analyze", "drive /analyze instead of /measure: rotate plain, duet, multiplexed, and sampling items"},
		{"monitor", "drive /sessions instead of /measure: open paired streaming sessions and cross-check their series"},
		{"plan", "drive /plan instead of /measure: accuracy-targeted plans, asserting determinism, fused-interval narrowing, and CI-target attainment"},
		{"infer", "drive /infer instead of /measure: constraint-graph inference, asserting determinism, posterior<=prior intervals, and residual verdicts"},
		{"engine", "drive /measure in engine pairs: every configuration pinned to the interpreter and the compiled engine, asserting byte-identical responses"},
		{"campaign", "drive /campaigns instead of /measure: paired adversarial counter-validation campaigns, asserting byte-identical streams and zero findings"},
		{"mixed", "rotate every request through /measure, /analyze, /plan, and /infer; the report splits latency percentiles per endpoint"},
		{"trace", "drive traced+untraced request pairs across all endpoints, asserting span presence and byte-identity once the trace block is stripped"},
		{"cluster", "treat -addr as a pcfront cluster: drive the mixed rotation through it and cross-check every response byte-identical to the -direct node"},
	}
	selected := make([]*bool, len(workloads))
	for i, wl := range workloads {
		selected[i] = flag.Bool(wl.name, false, wl.usage)
	}
	flag.Parse()

	var on []string
	for i, wl := range workloads {
		if *selected[i] {
			on = append(on, wl.name)
		}
	}
	var err error
	switch {
	case len(on) == 2 && on[0] == "trace" && on[1] == "cluster":
		o.workload = "cluster-trace"
	case len(on) > 1:
		err = fmt.Errorf("-analyze, -monitor, -plan, -infer, -engine, -campaign, -mixed, -trace, and -cluster are mutually exclusive workloads (except -cluster -trace)")
	case len(on) == 1:
		o.workload = on[0]
	}
	nSet := false
	flag.Visit(func(f *flag.Flag) { nSet = nSet || f.Name == "n" })
	if size, ok := defaultN[o.workload]; ok && !nSet {
		o.n = size
	}
	if err == nil {
		err = run(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcload:", err)
		os.Exit(1)
	}
}

// workloads maps each workload name to the function that builds its mode.
var workloads = map[string]func(options) (*mode, error){
	"": measureMode, "analyze": measureMode, "mixed": mixedMode, "trace": traceMode,
	"plan": planMode, "infer": inferMode, "engine": engineMode,
	"monitor": monitorMode, "campaign": campaignMode,
	"cluster": clusterMode, "cluster-trace": clusterTraceMode,
}

// run validates the options, builds the workload's mode, and drives it.
func run(w io.Writer, o options) error {
	if o.c <= 0 {
		return fmt.Errorf("-c must be positive (got %d)", o.c)
	}
	if o.n < 0 {
		return fmt.Errorf("-n must be non-negative (got %d)", o.n)
	}
	build, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	m, err := build(o)
	if err != nil {
		return err
	}
	return m.run(w, o.addr, o.direct, o.c)
}
