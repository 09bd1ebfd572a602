package engine_test

import (
	"testing"

	"repro/internal/campaign/gen"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// The fuzz program generator lives in campaign/gen (gen.FromBytes), so
// generated program shapes are defined exactly once; this test keeps
// only the engine-conformance harness.

// fuzzEvents are the event pairs each program is run with, one run per
// pair because CD has only two programmable counters: the first pair
// checks retirement and time, the second the cold-front-end misses.
var fuzzEvents = [][2]cpu.Event{
	{cpu.EventInstrRetired, cpu.EventCoreCycles},
	{cpu.EventICacheMiss, cpu.EventITLBMiss},
}

// fuzzRun executes the program on a fresh system through the given
// engine with the given events counted and returns the final state
// snapshot.
func fuzzRun(t *testing.T, model *cpu.Model, p *isa.Program, seed uint64, r cpu.Runner, events [2]cpu.Event) enginetest.State {
	t.Helper()
	k := kernel.New(model)
	handler := isa.NewBuilder("fuzz-sys", 0x8000).
		ALUBlock(20).
		Emit(isa.RDMSR(0), isa.WRMSR(isa.MSREnable, 0b11), isa.SysRet()).
		Build()
	if err := k.RegisterSyscall(gen.FuzzSyscall, "fuzz", handler); err != nil {
		t.Fatal(err)
	}
	for slot, ev := range events {
		if err := k.Core.PMU.Configure(slot, cpu.CounterConfig{Event: ev, User: true, OS: true}); err != nil {
			t.Fatal(err)
		}
	}
	k.Core.PMU.Enable(0b11)
	k.Core.SeedRun(seed)
	return enginetest.Snapshot(k.Core, r.RunProgram(k.Core, p))
}

// FuzzEngineConformance feeds randomized programs through both engines
// and requires bit-identical final machine state, including errors.
// shift moves the program's load base up from gen.FromBytes' page-aligned
// one, so programs and their blocks can straddle an i-TLB page boundary.
func FuzzEngineConformance(f *testing.F) {
	f.Add([]byte{0}, uint64(1), uint16(0))
	f.Add([]byte{4, 2, 9, 0, 255, 7, 6, 200, 180, 2, 10, 3, 8, 31, 5, 17}, uint64(7), uint16(0))
	f.Add([]byte{11, 255, 0, 0}, uint64(3), uint16(0))
	f.Add([]byte{6, 255, 255, 3, 7, 7, 7, 9, 1, 9, 3, 10, 2, 5, 0, 4, 4, 8, 200, 9}, uint64(99), uint16(0))
	// A block of straight-line code ending in a taken branch straddles
	// the 0x5000 page boundary; a loop, a syscall and an RDPMC follow,
	// on K8 (the last byte picks the model).
	f.Add([]byte{0, 5, 1, 5, 0, 5, 4, 3, 0, 5, 6, 9, 9, 1, 2, 1, 5, 7, 7, 0, 5, 9, 1, 1, 11, 2}, uint64(5), uint16(0x0fc0))

	models := []string{"PD", "CD", "K8"}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, shift uint16) {
		var pick byte
		if len(data) > 0 {
			pick = data[len(data)-1]
		}
		m, err := cpu.ModelByTag(models[int(pick)%len(models)])
		if err != nil {
			t.Fatal(err)
		}
		p := gen.FromBytes(data)
		if err := p.Validate(true); err != nil {
			t.Skip("generator produced invalid program:", err)
		}
		p = isa.NewBuilder(p.Name, p.Base+uint64(shift)).Emit(p.Code...).Build()
		for _, events := range fuzzEvents {
			si := fuzzRun(t, m, p, seed, engine.NewInterpreter(), events)
			sc := fuzzRun(t, m, p, seed, engine.NewCompiled(nil), events)
			if d := enginetest.Diff(si, sc); d != "" {
				t.Fatalf("engines diverge on %d-instruction program counting %v: %s", p.Len(), events, d)
			}
		}
	})
}
