package gen

import (
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/engine"
)

// runEvents executes the program's raw form on a bare core (no timer,
// no kernel) through the interpreter with the given events configured
// user-mode, and returns the raw counter accumulators plus the final
// clock.
func runEvents(t *testing.T, m *cpu.Model, p *Program, events []cpu.Event) (raw []float64, cycles float64) {
	t.Helper()
	return runEventsOn(t, engine.NewInterpreter(), m, p, events)
}

// runEventsOn is runEvents through the given engine.
func runEventsOn(t *testing.T, r cpu.Runner, m *cpu.Model, p *Program, events []cpu.Event) (raw []float64, cycles float64) {
	t.Helper()
	if len(events) > m.NumProgrammable {
		t.Fatalf("model %s has %d counters, want %d", m.Tag, m.NumProgrammable, len(events))
	}
	c := cpu.NewCore(m)
	var mask uint64
	for slot, ev := range events {
		if err := c.PMU.Configure(slot, cpu.CounterConfig{Event: ev, User: true}); err != nil {
			t.Fatal(err)
		}
		mask |= 1 << uint(slot)
	}
	c.PMU.Enable(mask)
	c.SeedRun(1)
	if err := r.RunProgram(c, p.Raw()); err != nil {
		t.Fatalf("run %s on %s (%s): %v", p.Spec(), m.Tag, r.Name(), err)
	}
	raw = make([]float64, len(events))
	for slot := range events {
		raw[slot] = c.PMU.Prog[slot].Raw()
	}
	return raw, c.Cycles
}

// allEvents is the full ground-truth vector, measured in pairs so it
// fits CD's two programmable counters.
var allEvents = []cpu.Event{
	cpu.EventInstrRetired, cpu.EventCoreCycles, cpu.EventBrMispRetired,
	cpu.EventICacheMiss, cpu.EventITLBMiss, cpu.EventDCacheMiss,
}

// checkTruth is the generator's central property: the analytically
// computed ground-truth vector equals a bare-core run through r bit for
// bit, all six events and the clock, for every class, model, and a
// spread of seeds. The maximum scale lays programs over several i-TLB
// pages, so compiled blocks straddle page boundaries and the
// i-cache/i-TLB counts exercise multi-page footprints. The run is
// repeated per event pair because CD has only two programmable counters.
func checkTruth(t *testing.T, r cpu.Runner) {
	t.Helper()
	for _, scale := range []int{DefaultScale, MaxScale} {
		for _, class := range Classes {
			for _, m := range cpu.AllModels {
				for seed := uint64(0); seed < 8; seed++ {
					p, err := New(class, seed, scale)
					if err != nil {
						t.Fatal(err)
					}
					truth := p.Truth(m)
					for i := 0; i < len(allEvents); i += 2 {
						pair := allEvents[i : i+2]
						raw, cycles := runEventsOn(t, r, m, p, pair)
						for slot, ev := range pair {
							want, ok := truth.Event(ev)
							if !ok {
								t.Fatalf("no truth component for %s", ev)
							}
							if raw[slot] != want {
								t.Errorf("%s on %s (%s): %s = %v, truth says %v",
									p.Spec(), m.Tag, r.Name(), ev, raw[slot], want)
							}
						}
						if cycles != truth.Cycles {
							t.Errorf("%s on %s (%s): clock %v, truth says %v",
								p.Spec(), m.Tag, r.Name(), cycles, truth.Cycles)
						}
					}
				}
			}
		}
	}
}

// TestTruthMatchesInterpreter checks the truth vector against the
// interpreter.
func TestTruthMatchesInterpreter(t *testing.T) {
	checkTruth(t, engine.NewInterpreter())
}

// TestTruthMatchesCompiled checks the truth vector against the compiled
// engine, so its block-level ICACHE_MISS/ITLB_MISS charging is held to
// the same oracle as the interpreter's per-instruction fetches.
func TestTruthMatchesCompiled(t *testing.T) {
	checkTruth(t, engine.NewCompiled(nil))
}

// TestDeterminism: identical (class, seed, scale) tuples reproduce
// byte-identical programs; different seeds differ.
func TestDeterminism(t *testing.T) {
	for _, class := range Classes {
		a, err := New(class, 7, DefaultScale)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(class, 7, DefaultScale)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Code, b.Code) {
			t.Errorf("%s: identical seeds produced different programs", class)
		}
		c, err := New(class, 8, DefaultScale)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Code, c.Code) {
			t.Errorf("%s: different seeds produced identical programs", class)
		}
	}
}

// TestCycleBudget: every generated program terminates within its
// declared structural cycle budget on every model.
func TestCycleBudget(t *testing.T) {
	for _, class := range Classes {
		for _, m := range cpu.AllModels {
			for seed := uint64(0); seed < 8; seed++ {
				p, err := New(class, seed, DefaultScale)
				if err != nil {
					t.Fatal(err)
				}
				_, cycles := runEvents(t, m, p, []cpu.Event{cpu.EventInstrRetired})
				if budget := p.CycleBudget(m); cycles > budget {
					t.Errorf("%s on %s: ran %v cycles, budget %v", p.Spec(), m.Tag, cycles, budget)
				}
			}
		}
	}
}

// TestExpectedInstrMatchesRun: the placement-independent instruction
// ground truth equals what actually retires (body plus the Halt).
func TestExpectedInstrMatchesRun(t *testing.T) {
	for _, class := range Classes {
		p, err := New(class, 3, DefaultScale)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := runEvents(t, cpu.Athlon64X2, p, []cpu.Event{cpu.EventInstrRetired})
		if want := float64(p.ExpectedInstr() + 1); raw[0] != want {
			t.Errorf("%s: retired %v, expected %v", p.Spec(), raw[0], want)
		}
	}
}

// TestChaseStraddlesPages: at large scales the chase footprint crosses
// i-TLB pages, the capacity-straddling behavior the class exists for.
func TestChaseStraddlesPages(t *testing.T) {
	p, err := New(ClassChase, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if v := p.Truth(cpu.PentiumD); v.ITLB < 2 {
		t.Errorf("chase at scale 20 touched %v pages, want >= 2 (footprint %d bytes)",
			v.ITLB, p.Raw().ByteSize())
	}
}

// TestSpecRoundTrip: Parse(Spec()) regenerates the identical program,
// and scale-less specs default.
func TestSpecRoundTrip(t *testing.T) {
	p, err := New(ClassBranch, 99, 5)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(p.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Errorf("Parse(%q) did not round-trip", p.Spec())
	}
	d, err := Parse("gen:v1:mix:4")
	if err != nil {
		t.Fatal(err)
	}
	if d.Scale != DefaultScale {
		t.Errorf("scale-less spec got scale %d, want %d", d.Scale, DefaultScale)
	}
	for _, bad := range []string{"gen", "gen:v2:mix:1:3", "gen:v1:nope:1:3", "gen:v1:mix:x:3", "gen:v1:mix:1:0", "gen:v1:mix:1:9999"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestValidity: a broad seed sweep only ever produces user-mode-valid
// programs.
func TestValidity(t *testing.T) {
	for _, class := range Classes {
		for seed := uint64(0); seed < 50; seed++ {
			p, err := New(class, seed, 1+int(seed%MaxScale))
			if err != nil {
				t.Fatalf("%s seed %d: %v", class, seed, err)
			}
			if p.ExpectedInstr() <= 0 {
				t.Errorf("%s retires nothing", p.Spec())
			}
		}
	}
}
