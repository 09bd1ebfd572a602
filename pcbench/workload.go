package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"repro/internal/api"
	"repro/internal/campaign/gen"
)

// kind is the client-visible operation a stream entry performs.
type kind int

const (
	kindMeasure kind = iota
	kindAnalyze
	kindPlan
	kindInfer
	kindSession
	numKinds
)

var kindNames = [numKinds]string{"measure", "analyze", "plan", "infer", "session"}

func (k kind) String() string { return kindNames[k] }

// path is the endpoint the kind posts to (a session then follows its
// stream).
func (k kind) path() string {
	if k == kindSession {
		return "/sessions"
	}
	return "/" + kindNames[k]
}

// traceable reports whether the endpoint accepts "trace": true.
func (k kind) traceable() bool { return k != kindSession }

// request is one generated stream entry: the endpoint kind and the
// JSON body the program receives.
type request struct {
	kind kind
	body []byte
}

// workload is a deterministic, seeded request stream plus the shape of
// the system it runs against. Entry i of the stream is a pure function
// of (workload, seed, i), so a run is reproducible from its seed and
// any entry can be regenerated for verification.
type workload struct {
	name string
	// cluster runs the stream through a 3-node front; otherwise it goes
	// to one node directly.
	cluster bool
	// workers is the per-shard pool size of every node (0: production
	// default).
	workers int
	// warmup is the number of leading entries the set-up pass sends to
	// fill the calibration and compile caches.
	warmup int
	// pairs marks streams whose entries come in identical back-to-back
	// pairs (2j and 2j+1).
	pairs bool
	// kinds lists the kinds the stream contains.
	kinds []kind
	at    func(i int) request
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"measure-hot", "measure-gen", "cluster-mix"}

// newWorkload builds the named workload's stream for a seed.
func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "measure-hot":
		return measureHot(seed), nil
	case "measure-gen":
		return measureGen(seed), nil
	case "cluster-mix":
		return clusterMix(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// mix is a splitmix64 finalizer over the combined inputs: the stream's
// per-entry pseudo-random source.
func mix(vals ...uint64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, v := range vals {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// marshal encodes a request body; the wire types always encode.
func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("pcbench: encoding %T: %v", v, err))
	}
	return b
}

// hotMix is pcload's default configuration mix.
var hotMix = [][2]string{{"K8", "pc"}, {"K8", "pm"}, {"CD", "pc"}, {"CD", "PHpm"}}

// measureHot is one node answering /measure for pcload's default mix:
// every (configuration, benchmark, pattern) combination, each request
// with its own seed so nothing coalesces, calibration on. The warm-up
// sends every combination once, so the timed phase runs on warm
// calibration and compile caches.
func measureHot(seed uint64) *workload {
	benches := []string{"null", "loop:1000", "loop:10000", "array:500"}
	patterns := []string{"ar", "ao", "rr", "ro"}
	var combos []api.MeasureRequest
	for _, cfg := range hotMix {
		for _, b := range benches {
			for _, p := range patterns {
				// The PAPI high-level stacks reset on read, so they cannot
				// express rr/ro; their share of the rotation stays on ar/ao.
				if cfg[1] == "PHpm" && p[0] == 'r' {
					p = "a" + p[1:] // rr -> ar, ro -> ao
				}
				combos = append(combos, api.MeasureRequest{
					Processor: cfg[0], Stack: cfg[1], Bench: b, Pattern: p,
					Runs: 3, Calibrate: true,
				})
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x686f74))
	rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
	base := 1 + (seed%1_000_000)*1_000_000
	return &workload{
		name:   "measure-hot",
		warmup: len(combos),
		kinds:  []kind{kindMeasure},
		at: func(i int) request {
			req := combos[i%len(combos)]
			req.Seed = base + uint64(i)
			return request{kind: kindMeasure, body: marshal(req)}
		},
	}
}

// genConfigs are the processor/stack pairs measure-gen sweeps.
var genConfigs = [][2]string{{"K8", "pc"}, {"CD", "pm"}, {"PD", "pc"}}

// genScale is the generated-program scale of measure-gen.
const genScale = 64

// measureGen is one node answering /measure for campaign-generated
// programs: all five classes on three configurations, two events,
// calibrated, as campaign sweeps send them. Each entry names a program
// seed of its own, so the distinct harness programs outnumber the
// node's 256-entry compile cache many times over. One run per request
// keeps the compile of each new program from being amortized over
// repeated runs: at scale 64 (the generator's maximum) that is what
// makes the engine run outweigh the infrastructure set-up plus the
// harness build. The warm-up covers each configuration's calibration.
func measureGen(seed uint64) *workload {
	per := len(gen.Classes) * len(genConfigs)
	base := (seed % 1_000_000) * 1_000_000
	return &workload{
		name:   "measure-gen",
		warmup: 2 * per,
		kinds:  []kind{kindMeasure},
		at: func(i int) request {
			class := gen.Classes[i%len(gen.Classes)]
			cfg := genConfigs[(i/len(gen.Classes))%len(genConfigs)]
			prog := base + uint64(i/per)
			req := api.MeasureRequest{
				Processor: cfg[0], Stack: cfg[1],
				Bench:     fmt.Sprintf("gen:v%d:%s:%d:%d", gen.Version, class, prog, genScale),
				Events:    []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED"},
				Runs:      1,
				Seed:      1 + mix(seed, uint64(i))%1_000_000_000,
				Calibrate: true,
			}
			return request{kind: kindMeasure, body: marshal(req)}
		},
	}
}

// clusterMix is a 3-node front over Workers: 2 nodes, rotating through
// /measure, /analyze, /plan, /infer and a monitoring session. Every
// distinct request appears twice back to back, so the two clients
// often hold both copies in flight at once and the owner node
// coalesces them.
func clusterMix(seed uint64) *workload {
	benches := []string{"loop:1000", "loop:5000", "array:500"}
	return &workload{
		name:    "cluster-mix",
		cluster: true,
		workers: 2,
		warmup:  2 * int(numKinds) * 8,
		pairs:   true,
		kinds:   []kind{kindMeasure, kindAnalyze, kindPlan, kindInfer, kindSession},
		at: func(i int) request {
			j := uint64(i / 2)
			k := kind(j % uint64(numKinds))
			h := mix(seed, j)
			cfg := hotMix[h%uint64(len(hotMix))]
			m := api.MeasureRequest{
				Processor: cfg[0], Stack: cfg[1],
				Bench: benches[(h>>8)%uint64(len(benches))],
				Runs:  3,
				Seed:  1 + (h>>16)%1_000_000_000,
			}
			variant := (h >> 48) % 4
			switch k {
			case kindMeasure:
				m.Calibrate = true
				return request{kind: k, body: marshal(m)}
			case kindAnalyze:
				return request{kind: k, body: marshal(analyzeItem(m, variant))}
			case kindPlan:
				m.Runs = 0 // the planner owns its run counts
				m.Events = []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "DCACHE_MISS"}
				return request{kind: k, body: marshal(api.PlanRequest{
					Measure:        m,
					TargetRelWidth: 0.25,
					Counters:       2, // three events on two counters: multiplexed
					PilotRuns:      2,
					MaxRuns:        8,
				})}
			case kindInfer:
				input := func(event string) api.InferInput {
					in := m
					in.Runs = 4
					in.Events = []string{event}
					return api.InferInput{Measure: &in}
				}
				return request{kind: k, body: marshal(api.InferRequest{Items: []api.InferItem{{
					Inputs: []api.InferInput{input("INSTR_RETIRED"), input("CPU_CLK_UNHALTED")},
				}}})}
			default:
				m.Runs = 0
				return request{kind: kindSession, body: marshal(api.SessionRequest{
					Measure: m, Steps: 32, WindowSize: 8,
				})}
			}
		},
	}
}

// analyzeItem wraps a measurement as a one-item /analyze batch in one
// of pcload's four error models: plain counting, duet pairing against
// the null benchmark, multiplexed estimation, or sampling.
func analyzeItem(m api.MeasureRequest, variant uint64) api.AnalyzeRequest {
	item := api.AnalyzeItem{Measure: m}
	switch variant {
	case 1:
		duet := m
		duet.Bench = "null"
		item.Duet = &duet
	case 2:
		item.Measure.Events = []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED"}
		item.MpxCounters = 1
	case 3:
		item.SamplingPeriod = 10_000
	}
	return api.AnalyzeRequest{Items: []api.AnalyzeItem{item}}
}

// withTrace returns the body with "trace": true set, for the traced
// phase. Only the trace-capable endpoints get it.
func withTrace(r request) request {
	if !r.kind.traceable() {
		return r
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(r.body, &m); err != nil {
		panic(fmt.Sprintf("pcbench: generated body does not decode: %v", err))
	}
	m["trace"] = json.RawMessage("true")
	return request{kind: r.kind, body: marshal(m)}
}
