// Command pcbench is the repository's benchmark. It boots in-process
// measurement nodes (and, for cluster-mix, a 3-node cluster front) on
// loopback listeners, drives a seeded request stream through them with
// a closed loop of two clients, checks every answer, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced run (--trace 1). The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload measure-hot --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's operations, failures and metrics.
type report struct {
	w         io.Writer
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: finite(v), Unit: unit}
}

// fail records a failed operation with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// phase counts a phase's operations into the totals and prints them.
func (r *report) phase(p *phase) {
	a, f := p.counts()
	r.attempted += a
	r.failed += f
	fmt.Fprintf(r.w, "phase %s: sent %d succeeded %d failed %d in %.3fs\n", p.name, a, a-f, f, p.elapsed.Seconds())
	shown := 0
	for i := range p.outcomes {
		if o := &p.outcomes[i]; !o.ok && shown < 5 {
			fmt.Fprintf(r.w, "  failed #%d %s: %s\n", o.idx, o.kind, o.err)
			r.problems = append(r.problems, fmt.Sprintf("%s #%d: %s", p.name, o.idx, o.err))
			shown++
		}
	}
}

// verification counts n operations a check made beyond the phases
// (re-sends, replays); their failures are recorded through fail.
func (r *report) verification(n int) { r.attempted += n }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("pcbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: measure-hot, measure-gen or cluster-mix")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same request stream")
	seconds := fs.Int("seconds", 15, "minimum length of each measured phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a separate traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := newWorkload(*name, *seed)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "pcbench: bad arguments (workload %q: %v)\n", *name, err)
		return 2
	}
	gatherFacts(wl.name, *seed, *seconds, *trace).print(stdout)
	rep := &report{w: stdout, metrics: make(map[string]metric)}
	cfg := runConfig{wl: wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *trace == 0 {
		err = endToEnd(cfg, rep)
	} else {
		err = perLayer(cfg, rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcbench: %v\n", err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "problem: %s\n", p)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	res := result{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pcbench: encoding the result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runConfig is one invocation's workload and length.
type runConfig struct {
	wl      *workload
	seed    uint64
	seconds time.Duration
}

// setups is how many times an end-to-end run boots its fleet and runs
// the warm-up; setup_s is their median.
const setups = 9

// maxPhase caps a timed phase that is still short of p99 samples.
const maxPhase = 100 * time.Second

// minWindows is the fewest latency windows (see windowed) a measured
// phase collects for every kind, so that each p99 is a median over
// several windows rather than one window's ten slowest samples.
const minWindows = 5

// timedRule is the stop rule of a measured phase: at least the run
// length, and long enough that every kind has minWindows windows.
func (c runConfig) timedRule() stopRule {
	return stopRule{minDur: c.seconds, maxDur: max(c.seconds, maxPhase), minSamples: minWindows * samplesFor(0.99)}
}

// runtimeSample reads the Go runtime's cumulative heap allocation and
// CPU accounting.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
	cpu                         time.Duration
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		cpu:        cpuTime(),
	}
}

// endToEnd is the untraced run: set up several times, then one timed
// phase, then the correctness checks.
func endToEnd(cfg runConfig, rep *report) error {
	client := newClient()
	defer client.CloseIdleConnections()
	var (
		setupTimes []float64
		f          *fleet
	)
	for i := 0; i < setups; i++ {
		if f != nil {
			f.close()
			client.CloseIdleConnections()
		}
		start := time.Now()
		var err error
		if f, err = bootFleet(cfg.wl, nil); err != nil {
			return err
		}
		warm := runPhase(fmt.Sprintf("warm-up-%d", i+1), client, f.base, cfg.wl, 0, stopRule{end: cfg.wl.warmup}, false, nil)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		rep.phase(warm)
	}
	defer f.close()

	window := verifyWindow(cfg.wl, cfg.seed)
	before := readRuntime()
	timed := runPhase("timed", client, f.base, cfg.wl, cfg.wl.warmup, cfg.timedRule(), false, window.contains)
	after := readRuntime()
	rep.phase(timed)

	ok := float64(timed.succeeded())
	rep.set("setup_s", "s", median(setupTimes))
	rep.set("throughput_rps", "req/s", timed.blockThroughput())
	p50, _ := kindLatency(rep, timed, cfg.wl, kindMeasure)
	rep.set("measure_p50_ms", "ms", p50)
	rep.set("cpu_ms_per_req", "ms", ratio(float64(after.cpu-before.cpu)/1e6, ok))
	rep.set("alloc_kb_per_req", "KiB", ratio((after.allocBytes-before.allocBytes)/1024, ok))
	// The p99 and the other kinds' percentiles are per-layer metrics of
	// the traced run; here they are printed and checked only.
	for _, k := range []kind{kindAnalyze, kindPlan, kindInfer, kindSession} {
		kindLatency(rep, timed, cfg.wl, k)
	}
	a, fl := timed.counts()
	fmt.Fprintf(rep.w, "error_rate: %.6f (%d of %d)\n", ratio(float64(fl), float64(a)), fl, a)

	pairCheck(rep, timed, cfg.wl)
	kept := window.collect(timed)
	timed.outcomes = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("retained_heap_mb", "MiB", float64(ms.HeapAlloc)/(1<<20))
	return verifyAgainstReference(rep, client, cfg, f, window, kept)
}

// kindLatency prints and returns a kind's p50 and p99 over 1000-request
// windows (see windowed), and records a kind without a whole window
// as a problem. Kinds the workload does not send read 0.
func kindLatency(rep *report, p *phase, wl *workload, k kind) (p50, p99 float64) {
	xs := p.byKind(k)
	windows := 0
	if slices.Contains(wl.kinds, k) {
		var err error
		if p50, p99, windows, err = windowed(xs, 0.99); err != nil {
			rep.problems = append(rep.problems, fmt.Sprintf("%s latency: %v", k, err))
		}
	}
	fmt.Fprintf(rep.w, "latency %s: n=%d windows=%d p50=%.4fms p99=%.4fms\n", k, len(xs), windows, finite(p50), finite(p99))
	return p50, p99
}

// setLatencies sets the <kind>_p50_ms and <kind>_p99_ms metrics.
func setLatencies(rep *report, p *phase, wl *workload, ks ...kind) {
	for _, k := range ks {
		p50, p99 := kindLatency(rep, p, wl, k)
		rep.set(k.String()+"_p50_ms", "ms", p50)
		rep.set(k.String()+"_p99_ms", "ms", p99)
	}
}
