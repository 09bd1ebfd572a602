package core_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/campaign/gen"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/stack"
)

// sameProgram fails unless a and b are the same program: name, load
// address, code, and the address of every instruction.
func sameProgram(t *testing.T, what string, a, b *isa.Program) {
	t.Helper()
	if a.Name != b.Name || a.Base != b.Base || !reflect.DeepEqual(a.Code, b.Code) {
		t.Fatalf("%s: programs differ: %q@%#x (%d instrs) vs %q@%#x (%d instrs)",
			what, a.Name, a.Base, a.Len(), b.Name, b.Base, b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Addr(i) != b.Addr(i) {
			t.Fatalf("%s: instr %d at %#x vs %#x", what, i, a.Addr(i), b.Addr(i))
		}
	}
}

// harnessBenches are the benchmarks the key tests cover: one of each
// constructor with a Spec.
func harnessBenches(t *testing.T) []*core.Benchmark {
	t.Helper()
	g, err := gen.Parse("gen:v1:mix:7:8")
	if err != nil {
		t.Fatal(err)
	}
	return []*core.Benchmark{core.NullBenchmark(), core.LoopBenchmark(1000), core.ArrayBenchmark(500), g.Benchmark()}
}

// setup boots a system and configures n counters under mode, cycling
// through the architecture's events so configurations that differ only
// in what they count share a harness key.
func setup(t *testing.T, m *cpu.Model, code string, tsc bool, n int, mode core.MeasureMode, shift int) *stack.System {
	t.Helper()
	s, err := stack.New(m, code, stack.Options{WithTSC: tsc, Governor: kernel.Performance})
	if err != nil {
		t.Fatal(err)
	}
	events := cpu.Events(m.Arch)
	specs := make([]core.CounterSpec, n)
	for i := range specs {
		specs[i] = core.Spec(events[(i+shift)%len(events)], mode)
	}
	if err := s.Infra.Setup(specs); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHarnessCacheKeyComplete walks every model, stack, TSC setting,
// counter count, supported pattern, optimization level and benchmark.
// The cached harness must equal a fresh BuildHarness, and any two
// configurations with equal keys must build identical programs. The
// mode and events vary with the TSC setting, so perfmon-backed stacks
// (whose key ignores the TSC) meet every key twice with different
// modes and events.
func TestHarnessCacheKeyComplete(t *testing.T) {
	benches := harnessBenches(t)
	hc := core.NewHarnessCache(1 << 20)
	byKey := make(map[string]*isa.Program)
	configs := 0
	for _, m := range cpu.AllModels {
		for _, code := range stack.Codes {
			for ti, tsc := range []bool{true, false} {
				for n := 1; n <= min(3, m.NumProgrammable); n++ {
					s := setup(t, m, code, tsc, n, core.AllModes[(ti+n)%len(core.AllModes)], ti)
					for _, pat := range core.AllPatterns {
						if !pat.SupportedBy(s.Infra) {
							continue
						}
						for _, opt := range compiler.AllOptLevels {
							for _, bench := range benches {
								req := core.Request{Bench: bench, Pattern: pat, Opt: opt}
								what := fmt.Sprintf("%s/%s/tsc=%t/n=%d/%s/%s/%s", m.Tag, code, tsc, n, pat.Code(), opt, bench.Spec)
								fresh, err := core.BuildHarness(s.Infra, req)
								if err != nil {
									t.Fatalf("%s: %v", what, err)
								}
								got, err := hc.Get(s.Infra, req)
								if err != nil {
									t.Fatalf("%s: %v", what, err)
								}
								sameProgram(t, what+" cached vs fresh", got, fresh)
								key := fmt.Sprintf("%s|%d|%s|%s|%s", s.Infra.HarnessKey(), n, pat.Code(), opt, bench.Spec)
								if prev, ok := byKey[key]; ok {
									sameProgram(t, what+" vs an equal-key configuration", prev, fresh)
								} else {
									byKey[key] = fresh
								}
								configs++
							}
						}
					}
				}
			}
		}
	}
	if hc.Len() != len(byKey) {
		t.Errorf("cache holds %d harnesses for %d distinct keys", hc.Len(), len(byKey))
	}
	if len(byKey) == configs {
		t.Errorf("no two of %d configurations shared a key: the equal-key check ran on nothing", configs)
	}
}

// TestHarnessCacheBound: the cache never holds more than its capacity,
// evicts the least recently used harness, and an evicted configuration
// rebuilds an identical program.
func TestHarnessCacheBound(t *testing.T) {
	s := setup(t, cpu.Athlon64X2, "pc", true, 1, core.ModeUser, 0)
	req := func(iters int64) core.Request {
		return core.Request{Bench: core.LoopBenchmark(iters), Pattern: core.ReadRead, Opt: compiler.O2}
	}
	hc := core.NewHarnessCache(2)
	get := func(iters int64) *isa.Program {
		t.Helper()
		p, err := hc.Get(s.Infra, req(iters))
		if err != nil {
			t.Fatal(err)
		}
		if hc.Len() > 2 {
			t.Fatalf("cache holds %d harnesses, capacity 2", hc.Len())
		}
		return p
	}
	a, b := get(1), get(2)
	if get(1) != a {
		t.Fatal("a warm configuration did not reuse its harness")
	}
	get(3) // evicts loop:2, the least recently used
	if get(1) != a {
		t.Fatal("the most recently used harness was evicted")
	}
	rebuilt := get(2)
	if rebuilt == b {
		t.Fatal("an evicted harness was still cached")
	}
	sameProgram(t, "rebuilt after eviction", rebuilt, b)
}

// TestHarnessCacheSkipsUnspecified: a benchmark without a Spec (built
// outside the constructors) is never cached, and a nil cache builds
// afresh.
func TestHarnessCacheSkipsUnspecified(t *testing.T) {
	s := setup(t, cpu.Core2Duo, "PLpm", true, 2, core.ModeUserKernel, 0)
	bench := *core.LoopBenchmark(100)
	bench.Spec = ""
	req := core.Request{Bench: &bench, Pattern: core.ReadStop, Opt: compiler.O1}
	hc := core.NewHarnessCache(4)
	var nilCache *core.HarnessCache
	for _, c := range []*core.HarnessCache{hc, nilCache} {
		a, err := c.Get(s.Infra, req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Get(s.Infra, req)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Fatal("an uncacheable harness was shared")
		}
		sameProgram(t, "uncached builds", a, b)
	}
	if hc.Len() != 0 {
		t.Fatalf("cache holds %d harnesses, want 0", hc.Len())
	}
}

// TestHarnessCacheConcurrentGet has many goroutines, each on its own
// system, get overlapping configurations from one cache: every caller
// of a key receives the one shared program, equal to a fresh build.
func TestHarnessCacheConcurrentGet(t *testing.T) {
	const workers = 16
	benches := harnessBenches(t)
	hc := core.NewHarnessCache(64)
	got := make([][]*isa.Program, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		s := setup(t, cpu.Core2Duo, stack.Codes[w%2], true, 1, core.ModeUser, 0)
		wg.Add(1)
		go func(w int, s *stack.System) {
			defer wg.Done()
			for _, bench := range benches {
				for _, opt := range compiler.AllOptLevels {
					p, err := hc.Get(s.Infra, core.Request{Bench: bench, Pattern: core.StartRead, Opt: opt})
					if err != nil {
						t.Error(err)
						return
					}
					got[w] = append(got[w], p)
				}
			}
		}(w, s)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 2; w < workers; w++ {
		for i, p := range got[w] {
			if p != got[w%2][i] {
				t.Fatalf("worker %d, config %d: got a second program for one key", w, i)
			}
		}
	}
	s := setup(t, cpu.Core2Duo, stack.Codes[0], true, 1, core.ModeUser, 0)
	fresh, err := core.BuildHarness(s.Infra, core.Request{Bench: benches[3], Pattern: core.StartRead, Opt: compiler.O3})
	if err != nil {
		t.Fatal(err)
	}
	sameProgram(t, "shared vs fresh", got[0][len(got[0])-1], fresh)
}
