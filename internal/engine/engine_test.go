package engine

import (
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// TestCompileLowersStraightLine checks that a straight ALU run lowers
// into one block covering everything up to the terminator.
func TestCompileLowersStraightLine(t *testing.T) {
	b := isa.NewBuilder("straight", 0x1000)
	b.ALUBlock(10)
	b.Emit(isa.Halt())
	p := b.Build()

	cp := compile(p)
	blk := cp.blockAt(0)
	if blk == nil {
		t.Fatal("no block at entry")
	}
	if blk.n != 10 || blk.alu != 10 || blk.mem != 0 || blk.br != 0 {
		t.Fatalf("block summary = %+v, want 10 ALU", blk)
	}
	if blk.next != 10 {
		t.Fatalf("block next = %d, want 10 (the halt)", blk.next)
	}
}

// TestCompileStopsAtPMUVisible checks that PMU-visible instructions are
// excluded from blocks and resume points become leaders.
func TestCompileStopsAtPMUVisible(t *testing.T) {
	b := isa.NewBuilder("pmu", 0x1000)
	b.ALUBlock(4)
	b.Emit(isa.RDPMC(0, isa.NoSlot))
	b.ALUBlock(3)
	b.Emit(isa.Halt())
	p := b.Build()

	cp := compile(p)
	if blk := cp.blockAt(0); blk == nil || blk.n != 4 || blk.next != 4 {
		t.Fatalf("entry block = %+v, want 4 instrs ending at rdpmc", blkStr(cp, 0))
	}
	if cp.blockAt(4) != nil {
		t.Fatal("rdpmc must not start a block")
	}
	if blk := cp.blockAt(5); blk == nil || blk.n != 3 || blk.next != 8 {
		t.Fatalf("resume block = %+v, want 3 instrs", blkStr(cp, 5))
	}
}

func blkStr(cp *program, pc int) string {
	b := cp.blockAt(pc)
	if b == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%+v", *b)
}

// TestCompileBranches checks taken-branch termination, target leaders,
// and static misprediction counting.
func TestCompileBranches(t *testing.T) {
	// 0: alu, 1: branch forward taken -> 4 (mispredict), 2: alu, 3: alu,
	// 4: alu, 5: halt. pc 2 is dead code.
	p := isa.NewBuilder("br", 0x1000).Emit(
		isa.ALU(),
		isa.Branch(4, true),
		isa.ALU(),
		isa.ALU(),
		isa.ALU(),
		isa.Halt(),
	).Build()

	cp := compile(p)
	entry := cp.blockAt(0)
	if entry == nil || entry.n != 2 || entry.br != 1 || entry.misp != 1 {
		t.Fatalf("entry block = %s, want alu+mispredicted branch", blkStr(cp, 0))
	}
	if entry.next != 4 {
		t.Fatalf("entry next = %d, want branch target 4", entry.next)
	}
	target := cp.blockAt(4)
	if target == nil || target.n != 1 || target.next != 5 {
		t.Fatalf("target block = %s, want 1 alu ending at halt", blkStr(cp, 4))
	}
}

// TestCacheLRUAndStats exercises hit/miss/eviction accounting.
func TestCacheLRUAndStats(t *testing.T) {
	mk := func(n int) *isa.Program {
		b := isa.NewBuilder(fmt.Sprintf("p%d", n), uint64(0x1000*n))
		b.ALUBlock(n)
		b.Emit(isa.Halt())
		return b.Build()
	}
	cc := NewCache(2)
	p1, p2, p3 := mk(1), mk(2), mk(3)

	cc.lookup(p1, "PD")
	cc.lookup(p1, "PD")
	cc.lookup(p2, "PD")
	cc.lookup(p3, "PD") // evicts p1 (least recently used)
	cc.lookup(p2, "PD")

	st := cc.Stats()
	if st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("size/capacity = %d/%d, want 2/2", st.Size, st.Capacity)
	}
	if st.Hits != 2 || st.Misses != 3 || st.Evictions != 1 {
		t.Fatalf("hits/misses/evictions = %d/%d/%d, want 2/3/1", st.Hits, st.Misses, st.Evictions)
	}
	// Same code under a different model tag is a distinct entry.
	cc.lookup(p2, "K8")
	if got := cc.Stats().Misses; got != 4 {
		t.Fatalf("misses after model change = %d, want 4", got)
	}
}

// TestEngineNamesAndRunCounts checks the Runner surface the service
// reports in /healthz.
func TestEngineNamesAndRunCounts(t *testing.T) {
	interp, compiled := NewInterpreter(), NewCompiled(nil)
	if interp.Name() != "interpreter" || compiled.Name() != "compiled" {
		t.Fatalf("names = %q/%q", interp.Name(), compiled.Name())
	}

	m, err := cpu.ModelByTag("K8")
	if err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder("prog", 0x1000)
	b.ALUBlock(8)
	b.Emit(isa.Halt())
	p := b.Build()

	for i := 0; i < 3; i++ {
		if err := interp.RunProgram(cpu.NewCore(m), p); err != nil {
			t.Fatal(err)
		}
		if err := compiled.RunProgram(cpu.NewCore(m), p); err != nil {
			t.Fatal(err)
		}
	}
	if interp.Runs() != 3 || compiled.Runs() != 3 {
		t.Fatalf("runs = %d/%d, want 3/3", interp.Runs(), compiled.Runs())
	}
	st := compiled.CacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("cache hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
}

// TestCompiledActuallyBulks guards against silent fallback: on a core
// with no timer and no sampling consumer, canBulk must accept a
// straight-line block even when its fetch footprint is cold (the
// penalties are folded into the bulk application), and applying it must
// leave exactly the state a stepwise interpreter run leaves.
func TestCompiledActuallyBulks(t *testing.T) {
	m, err := cpu.ModelByTag("CD")
	if err != nil {
		t.Fatal(err)
	}
	b := isa.NewBuilder("bulk", 0x1000)
	b.ALUBlock(100)
	b.Emit(isa.Halt())
	p := b.Build()

	cp := compile(p)
	entry := cp.blockAt(0)
	if entry == nil || entry.n != 100 {
		t.Fatalf("entry block = %s, want 100 instrs", blkStr(cp, 0))
	}

	c := cpu.NewCore(m)
	c.SeedRun(1)
	c.BeginRun()
	cyc, lines, pages, ok := canBulk(c, entry)
	if !ok {
		t.Fatal("canBulk rejected a cold straight-line block with no timer — the engine would silently step everything")
	}
	applyBlock(c, entry, cyc, lines, pages)
	if err := c.CheckInterrupts(); err != nil {
		t.Fatal(err)
	}
	// The footprint must now be warm: a second canBulk sees no cold cost.
	if cl, cp2 := c.FetchCold(entry.footprint); cl != 0 || cp2 != 0 {
		t.Fatalf("footprint still cold after applyBlock: %d lines, %d pages", cl, cp2)
	}
	bulk := c.Cycles

	// A full compiled run and a pure interpreter run of the same program
	// must both land on the same cycle count as block application plus
	// the halt.
	cc := cpu.NewCore(m)
	cc.SeedRun(1)
	if err := NewCompiled(nil).RunProgram(cc, p); err != nil {
		t.Fatal(err)
	}
	ci := cpu.NewCore(m)
	ci.SeedRun(1)
	if err := NewInterpreter().RunProgram(ci, p); err != nil {
		t.Fatal(err)
	}
	if ci.Cycles != cc.Cycles {
		t.Fatalf("cycles diverge: interpreter=%v compiled=%v", ci.Cycles, cc.Cycles)
	}
	haltCost := c.ClassCost(cpu.ClassALU)
	if want := bulk + haltCost; cc.Cycles != want {
		t.Fatalf("compiled run = %v cycles, want block apply + halt = %v", cc.Cycles, want)
	}
}
