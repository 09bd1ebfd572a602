package cpu

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

// newTestCore returns a K8 core with counter 0 counting user+kernel
// instructions and counter 1 counting user-only instructions.
func newTestCore(t *testing.T) *Core {
	t.Helper()
	c := NewCore(Athlon64X2)
	if err := c.PMU.Configure(0, CounterConfig{Event: EventInstrRetired, User: true, OS: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.PMU.Configure(1, CounterConfig{Event: EventInstrRetired, User: true}); err != nil {
		t.Fatal(err)
	}
	c.PMU.Enable(0b11)
	return c
}

func TestRunCountsPlainProgram(t *testing.T) {
	c := newTestCore(t)
	p := isa.NewBuilder("p", 0x1000).ALUBlock(10).Emit(isa.Halt()).Build()
	if err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.PMU.Value(0); v != 11 { // 10 ALU + halt
		t.Errorf("counter = %d, want 11", v)
	}
	if c.RetiredUser != 11 || c.RetiredKernel != 0 {
		t.Errorf("retired = (%d user, %d kernel)", c.RetiredUser, c.RetiredKernel)
	}
	if c.Cycles <= 0 {
		t.Error("no cycles elapsed")
	}
}

func TestLoopBulkMatchesAnalyticalModel(t *testing.T) {
	// The paper's loop: 1 init + 3 instructions per iteration.
	for _, iters := range []int64{0, 1, 7, 100, 5000, 200000} {
		c := newTestCore(t)
		b := isa.NewBuilder("loop", 0x4000)
		b.Emit(isa.ALU())
		b.Loop(iters, func(body *isa.Builder) {
			body.Emit(isa.ALU(), isa.ALU(), isa.Branch(0, true))
		})
		b.Emit(isa.Halt())
		if err := c.Run(b.Build()); err != nil {
			t.Fatal(err)
		}
		want := 1 + 3*iters + 1 // + halt
		if v, _ := c.PMU.Value(0); v != want {
			t.Errorf("iters=%d: counted %d instructions, want %d", iters, v, want)
		}
	}
}

// TestLoopBulkEquivalence: fast-forwarding must retire exactly the same
// instruction count as stepwise interpretation (the ablation of the
// DESIGN.md "loop fast-forward" design choice).
func TestLoopBulkEquivalence(t *testing.T) {
	run := func(stepwise bool, iters int64) (int64, int64) {
		c := newTestCore(t)
		b := isa.NewBuilder("loop", 0x4000)
		b.Emit(isa.ALU())
		if stepwise {
			// A capture-free RDTSC in the body makes it non-plain,
			// forcing the stepwise path.
			b.Loop(iters, func(body *isa.Builder) {
				body.Emit(isa.ALU(), isa.ALU(), isa.Branch(0, true))
			})
		} else {
			b.Loop(iters, func(body *isa.Builder) {
				body.Emit(isa.ALU(), isa.ALU(), isa.Branch(0, true))
			})
		}
		b.Emit(isa.Halt())
		p := b.Build()
		if stepwise {
			// Force stepwise by calling the internal path directly.
			c.Run(&isa.Program{Name: "warm", Code: []isa.Instr{isa.Halt()}})
			c2 := newTestCore(t)
			if err := c2.execLoopForTest(p, iters); err != nil {
				t.Fatal(err)
			}
			v, _ := c2.PMU.Value(0)
			return v, c2.RetiredUser
		}
		if err := c.Run(p); err != nil {
			t.Fatal(err)
		}
		v, _ := c.PMU.Value(0)
		return v, c.RetiredUser
	}
	for _, iters := range []int64{1, 10, 100, 1000} {
		bulkV, bulkR := run(false, iters)
		stepV, stepR := run(true, iters)
		if bulkV != stepV || bulkR != stepR {
			t.Errorf("iters=%d: bulk (%d,%d) != stepwise (%d,%d)", iters, bulkV, bulkR, stepV, stepR)
		}
	}
}

// execLoopForTest drives the stepwise loop path with the same program
// shape that Run would fast-forward.
func (c *Core) execLoopForTest(p *isa.Program, iters int64) error {
	c.Captures = c.Captures[:0]
	c.Mode = User
	// init instruction
	if err := c.exec1(p, 0, p.Code[0]); err != nil {
		return err
	}
	hdr := p.Code[1]
	body := p.Code[2 : 2+int(hdr.B)]
	if err := c.execLoopStepwise(p, 1, body, iters); err != nil {
		return err
	}
	// halt
	c.retire(1, ClassALU)
	return nil
}

func TestSyscallModeTransitions(t *testing.T) {
	c := newTestCore(t)
	handler := isa.NewBuilder("sys_test", 0xffff0000).ALUBlock(20).Emit(isa.SysRet()).Build()
	c.Syscalls[1] = handler

	p := isa.NewBuilder("p", 0x1000).
		Emit(isa.ALU(), isa.Syscall(1), isa.ALU(), isa.Halt()).Build()
	if err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	// user: alu + syscall + alu + halt = 4; kernel: 20 + sysret = 21
	if c.RetiredUser != 4 {
		t.Errorf("user retired = %d, want 4", c.RetiredUser)
	}
	if c.RetiredKernel != 21 {
		t.Errorf("kernel retired = %d, want 21", c.RetiredKernel)
	}
	both, _ := c.PMU.Value(0)
	userOnly, _ := c.PMU.Value(1)
	if both != 25 {
		t.Errorf("user+kernel counter = %d, want 25", both)
	}
	if userOnly != 4 {
		t.Errorf("user-only counter = %d, want 4", userOnly)
	}
	if c.Mode != User {
		t.Error("mode not restored after syscall")
	}
}

func TestUnregisteredSyscall(t *testing.T) {
	c := newTestCore(t)
	p := isa.NewBuilder("p", 0).Emit(isa.Syscall(42), isa.Halt()).Build()
	if err := c.Run(p); !errors.Is(err, ErrBadSyscall) {
		t.Errorf("err = %v, want ErrBadSyscall", err)
	}
}

func TestPrivilegedInstructionFaults(t *testing.T) {
	c := newTestCore(t)
	p := isa.NewBuilder("p", 0).Emit(isa.WRMSR(isa.MSREnable, 1), isa.Halt()).Build()
	if err := c.Run(p); !errors.Is(err, ErrPrivilege) {
		t.Errorf("wrmsr in user mode: err = %v, want ErrPrivilege", err)
	}
	p2 := isa.NewBuilder("p2", 0).Emit(isa.RDMSR(7), isa.Halt()).Build()
	if err := c.Run(p2); !errors.Is(err, ErrPrivilege) {
		t.Errorf("rdmsr in user mode: err = %v, want ErrPrivilege", err)
	}
}

func TestStrayReturns(t *testing.T) {
	c := newTestCore(t)
	if err := c.Run(isa.NewBuilder("p", 0).Emit(isa.SysRet()).Build()); !errors.Is(err, ErrStrayReturn) {
		t.Errorf("stray sysret: %v", err)
	}
	if err := c.Run(isa.NewBuilder("p", 0).Emit(isa.IRet()).Build()); !errors.Is(err, ErrStrayReturn) {
		t.Errorf("stray iret: %v", err)
	}
}

func TestWRMSRInKernelControlsCounters(t *testing.T) {
	c := newTestCore(t)
	handler := isa.NewBuilder("sys_ctl", 0xffff0000).
		Emit(isa.WRMSR(isa.MSRReset, 0b11), isa.WRMSR(isa.MSRDisable, 0b11), isa.SysRet()).Build()
	c.Syscalls[2] = handler
	p := isa.NewBuilder("p", 0x1000).
		ALUBlock(50).
		Emit(isa.Syscall(2)).
		ALUBlock(30). // counters disabled: not counted
		Emit(isa.Halt()).Build()
	if err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	both, _ := c.PMU.Value(0)
	// Control writes take effect at retirement: the reset zeroes the
	// counter, then the disabling WRMSR retires under the *old*
	// (enabled) configuration — so it is the one and only instruction
	// counted after the reset. The 30 user ALUs after the syscall are
	// not counted. Symmetrically, an enabling WRMSR retires while still
	// disabled and is never counted (see the pattern-window tests in
	// internal/core).
	if both != 1 {
		t.Errorf("counter after reset+disable = %d, want 1 (the disabling WRMSR itself)", both)
	}
}

func TestRDPMCCaptures(t *testing.T) {
	c := newTestCore(t)
	p := isa.NewBuilder("p", 0x1000).
		Emit(isa.RDPMC(0, 0)).
		ALUBlock(10).
		Emit(isa.RDPMC(0, 1)).
		Emit(isa.Halt()).Build()
	if err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	if len(c.Captures) != 2 {
		t.Fatalf("captures = %d, want 2", len(c.Captures))
	}
	delta := c.Captures[1].Value - c.Captures[0].Value
	// Window: rest of rdpmc0 after capture... the capture excludes the
	// reading instruction itself, so the window contains rdpmc0 itself
	// retiring + 10 ALU = 11.
	if delta != 11 {
		t.Errorf("capture delta = %d, want 11", delta)
	}
	if c.Captures[0].Mode != User {
		t.Error("capture mode should be user")
	}
}

func TestRDTSCCapture(t *testing.T) {
	c := newTestCore(t)
	p := isa.NewBuilder("p", 0x1000).
		Emit(isa.RDTSC(0)).
		ALUBlock(100).
		Emit(isa.RDTSC(1)).
		Emit(isa.Halt()).Build()
	if err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	if len(c.Captures) != 2 {
		t.Fatalf("captures = %d", len(c.Captures))
	}
	if c.Captures[0].Counter != TSCCounter || c.Captures[1].Counter != TSCCounter {
		t.Error("TSC captures should be tagged TSCCounter")
	}
	if c.Captures[1].Value <= c.Captures[0].Value {
		t.Error("TSC must advance")
	}
}

func TestVirtualReadHook(t *testing.T) {
	c := newTestCore(t)
	c.VirtualRead = func(counter int) int64 { return 12345 + int64(counter) }
	p := isa.NewBuilder("p", 0).Emit(isa.RDPMC(1, 0), isa.Halt()).Build()
	if err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	if c.Captures[0].Value != 12346 {
		t.Errorf("virtual read = %d, want 12346", c.Captures[0].Value)
	}
}

func TestTimerInterruptAttribution(t *testing.T) {
	c := newTestCore(t)
	handler := isa.NewBuilder("tick", 0xffffa000).ALUBlock(500).Emit(isa.IRet()).Build()
	c.InstallTimer(1000, handler) // 2.2e6 cycle period on K8
	c.SeedRun(7)

	// A loop long enough to cross several ticks: 5M iterations at >=2
	// cycles/iter = >=10M cycles = >=4 ticks.
	b := isa.NewBuilder("loop", 0x4000)
	b.Emit(isa.ALU())
	b.Loop(5_000_000, func(body *isa.Builder) {
		body.Emit(isa.ALU(), isa.ALU(), isa.Branch(0, true))
	})
	b.Emit(isa.Halt())
	if err := c.Run(b.Build()); err != nil {
		t.Fatal(err)
	}
	if c.TimerDeliveries < 4 {
		t.Fatalf("timer deliveries = %d, want >= 4", c.TimerDeliveries)
	}
	both, _ := c.PMU.Value(0)
	userOnly, _ := c.PMU.Value(1)
	wantUser := int64(1 + 3*5_000_000 + 1)
	kernelPart := both - wantUser
	wantKernel := int64(c.TimerDeliveries) * 501 // 500 ALU + iret
	if kernelPart != wantKernel {
		t.Errorf("kernel-attributed instructions = %d, want %d", kernelPart, wantKernel)
	}
	// User-only counter may be skewed by a few instructions per tick.
	skew := userOnly - wantUser
	maxSkew := int64(c.TimerDeliveries) * 6
	if skew < -maxSkew || skew > maxSkew {
		t.Errorf("user skew = %d, |skew| must be <= %d", skew, maxSkew)
	}
}

func TestTimerPhaseDeterminism(t *testing.T) {
	run := func(seed uint64) (int64, float64) {
		c := newTestCore(t)
		handler := isa.NewBuilder("tick", 0xffffa000).ALUBlock(100).Emit(isa.IRet()).Build()
		c.InstallTimer(1000, handler)
		c.SeedRun(seed)
		b := isa.NewBuilder("loop", 0x4000)
		b.Emit(isa.ALU())
		b.Loop(2_000_000, func(body *isa.Builder) {
			body.Emit(isa.ALU(), isa.ALU(), isa.Branch(0, true))
		})
		b.Emit(isa.Halt())
		if err := c.Run(b.Build()); err != nil {
			t.Fatal(err)
		}
		v, _ := c.PMU.Value(0)
		return v, c.Cycles
	}
	v1, cy1 := run(11)
	v2, cy2 := run(11)
	v3, _ := run(12)
	if v1 != v2 || cy1 != cy2 {
		t.Error("same seed must reproduce exactly")
	}
	if v1 == v3 {
		t.Log("different seeds produced same count (possible but unlikely); not fatal")
	}
}

func TestIterCyclesPlacement(t *testing.T) {
	c := NewCore(Athlon64X2)
	// K8: aligned body -> 2 cycles/iter; straddling -> 3 (Figure 11).
	aligned := c.IterCycles(0x1000, 10, 0)
	if aligned != 2.0 {
		t.Errorf("aligned K8 loop = %v cycles/iter, want 2", aligned)
	}
	straddle := c.IterCycles(0x100a, 10, 0) // 10+10 > 16
	if straddle != 3.0 {
		t.Errorf("straddling K8 loop = %v cycles/iter, want 3", straddle)
	}

	// NetBurst adds placement quirks: the range must cover [1.5, 4].
	pd := NewCore(PentiumD)
	lo, hi := 1e9, 0.0
	for addr := uint64(0x1000); addr < 0x1100; addr++ {
		v := pd.IterCycles(addr, 10, 0)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo < 1.5 || hi > 4.0 || hi-lo < 1.0 {
		t.Errorf("PD iteration cycles range [%v, %v], want within [1.5,4] and spread >= 1", lo, hi)
	}
}

func TestIterCyclesDeterministic(t *testing.T) {
	f := func(addr uint64) bool {
		c := NewCore(PentiumD)
		return c.IterCycles(addr, 10, 0) == c.IterCycles(addr, 10, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarWorkBounded(t *testing.T) {
	c := newTestCore(t)
	c.SeedRun(3)
	p := isa.NewBuilder("p", 0).Emit(isa.VarWork(4, 0), isa.Halt()).Build()
	for i := 0; i < 50; i++ {
		c.SeedRun(uint64(i))
		if err := c.Run(p); err != nil {
			t.Fatal(err)
		}
		c.PMU.Reset(0b11)
	}
	// Just verify it runs and retires at least the baseline.
	if err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	if c.RetiredUser < 2 || c.RetiredUser > 6 {
		t.Errorf("varwork retired %d, want in [2,6]", c.RetiredUser)
	}
}

func TestBranchSemantics(t *testing.T) {
	c := newTestCore(t)
	// Forward taken branch skips one instruction.
	p := isa.NewBuilder("p", 0).
		Emit(isa.Branch(2, true)). // 0: jump to 2
		Emit(isa.ALU()).           // 1: skipped
		Emit(isa.Halt()).          // 2
		Build()
	if err := c.Run(p); err != nil {
		t.Fatal(err)
	}
	if c.RetiredUser != 2 { // branch + halt
		t.Errorf("retired = %d, want 2", c.RetiredUser)
	}
}

// coldCore returns a K8 core counting i-cache and i-TLB misses in both
// privilege modes.
func coldCore(t *testing.T) *Core {
	t.Helper()
	c := NewCore(Athlon64X2)
	for slot, ev := range []Event{EventICacheMiss, EventITLBMiss} {
		if err := c.PMU.Configure(slot, CounterConfig{Event: ev, User: true, OS: true}); err != nil {
			t.Fatal(err)
		}
	}
	c.PMU.Enable(0b11)
	return c
}

// TestColdFrontEndEvents pins the first-touch model: every fetched
// instruction charges its start address's 64-byte line and 4 KiB page
// once per run, and a run starts with nothing warm.
func TestColdFrontEndEvents(t *testing.T) {
	// Sizes 1..15 laid from 10 bytes into a line: starts fall in two
	// lines, and the last instruction's tail runs into a third, which
	// stays uncharged because only start addresses are fetched.
	sized := isa.NewBuilder("sized", 0x2000+10)
	for size := 1; size <= 15; size++ {
		sized.Emit(isa.Instr{Op: isa.OpALU, Slot: isa.NoSlot, Size: uint8(size)})
	}
	sized.Emit(isa.Halt())
	// User code at address 0 and a handler at the kernel's high base
	// share their low address bits but not their pages.
	handler := isa.NewBuilder("sys", 0xffff_8000_0000).ALUBlock(20).Emit(isa.SysRet()).Build()

	cases := []struct {
		name         string
		p            *isa.Program
		handler      *isa.Program
		icache, itlb int64
	}{
		// 64 ALU x 4 bytes = 256 bytes: 4 lines of 1 page.
		{"straight", isa.NewBuilder("p", 0x1000).ALUBlock(64).Emit(isa.Halt()).Build(), nil, 4, 1},
		{"sizes 1-15", sized.Build(), nil, 2, 1},
		// 32 ALU x 4 bytes from 0x0fc0: the last line of page 0 and the
		// first line of page 1.
		{"straddles 0x1000", isa.NewBuilder("p", 0x0fc0).ALUBlock(32).Emit(isa.Halt()).Build(), nil, 2, 2},
		// The syscall and terminators fetch nothing; the user ALUs touch
		// line 0 of page 0, the handler's 80 bytes two lines of its page.
		{"kernel handler", isa.NewBuilder("p", 0).ALUBlock(4).Emit(isa.Syscall(1), isa.Halt()).Build(), handler, 3, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := coldCore(t)
			c.Syscalls[1] = tc.handler
			var prevIC, prevTLB int64
			var prevCycles, runCycles float64
			// The second run must re-charge everything: BeginRun leaves
			// no fetch history behind.
			for run := 1; run <= 2; run++ {
				if err := c.Run(tc.p); err != nil {
					t.Fatal(err)
				}
				ic, _ := c.PMU.Value(0)
				tlb, _ := c.PMU.Value(1)
				if ic-prevIC != tc.icache || tlb-prevTLB != tc.itlb {
					t.Errorf("run %d: icache/itlb misses = %d/%d, want %d/%d",
						run, ic-prevIC, tlb-prevTLB, tc.icache, tc.itlb)
				}
				cyc := c.Cycles - prevCycles
				if run == 1 {
					runCycles = cyc
				} else if cyc != runCycles {
					t.Errorf("run 2 took %v cycles, run 1 %v", cyc, runCycles)
				}
				if tc.handler == nil {
					want := float64(tc.p.Len())*c.ClassCost(ClassALU) +
						float64(tc.icache)*c.Model.ICacheMissPenalty + float64(tc.itlb)*c.Model.ITLBMissPenalty
					if cyc != want {
						t.Errorf("run %d took %v cycles, want %v", run, cyc, want)
					}
				}
				prevIC, prevTLB, prevCycles = ic, tlb, c.Cycles
			}
		})
	}
}

// TestFetchFootprint checks the bulk pair FetchCold/FetchMark against
// per-address fetches: counts are exact for cold, partly warm and warm
// footprints, and the grouped charge equals the stepwise one.
func TestFetchFootprint(t *testing.T) {
	addrs := []uint64{0x0fc0, 0x0fc4, 0x1000, 0x1040, 0x1044, 0xffff_8000_0000}
	var fp []PageLines
	for _, a := range addrs {
		f := FetchAt(a)
		if n := len(fp); n > 0 && fp[n-1].Page == f.Page {
			fp[n-1].Lines |= f.Lines
		} else {
			fp = append(fp, f)
		}
	}

	bulk, step := coldCore(t), coldCore(t)
	bulk.BeginRun()
	step.BeginRun()
	// Warm one line of page 1 first: the footprint then has one warm
	// page with a cold line, and two cold pages.
	bulk.fetchPenalty(0x1000)
	step.fetchPenalty(0x1000)
	lines, pages := bulk.FetchCold(fp)
	if lines != 3 || pages != 2 {
		t.Fatalf("FetchCold = %d lines, %d pages, want 3, 2", lines, pages)
	}
	bulk.FetchMark(fp, lines, pages)
	for _, a := range addrs {
		step.fetchPenalty(a)
	}
	for i := range bulk.PMU.Prog {
		if b, s := bulk.PMU.Prog[i].Raw(), step.PMU.Prog[i].Raw(); b != s {
			t.Errorf("counter %d: bulk %v, stepwise %v", i, b, s)
		}
	}
	if bulk.Cycles != step.Cycles {
		t.Errorf("cycles: bulk %v, stepwise %v", bulk.Cycles, step.Cycles)
	}
	if l, p := bulk.FetchCold(fp); l != 0 || p != 0 {
		t.Errorf("footprint still cold after FetchMark: %d lines, %d pages", l, p)
	}
}

// TestFetchResetAllocs: resetting the fetch state and re-fetching a
// footprint reuses the run's storage.
func TestFetchResetAllocs(t *testing.T) {
	c := coldCore(t)
	fp := []PageLines{FetchAt(0x0fc0), FetchAt(0x1000), FetchAt(0xffff_8000_0000)}
	allocs := testing.AllocsPerRun(100, func() {
		c.BeginRun()
		lines, pages := c.FetchCold(fp)
		c.FetchMark(fp, lines, pages)
		c.fetchPenalty(0x1004)
		if lines, pages := c.FetchCold(fp); lines|pages != 0 {
			t.Fatalf("warm re-fetch found %d cold lines, %d cold pages", lines, pages)
		}
	})
	if allocs != 0 {
		t.Errorf("BeginRun plus re-fetch allocates %v times per run, want 0", allocs)
	}
}

func TestNestingLimit(t *testing.T) {
	c := newTestCore(t)
	// A syscall handler that performs another syscall, recursively.
	h := isa.NewBuilder("sys_rec", 0xffff0000).Emit(isa.Syscall(3), isa.SysRet()).Build()
	c.Syscalls[3] = h
	p := isa.NewBuilder("p", 0).Emit(isa.Syscall(3), isa.Halt()).Build()
	if err := c.Run(p); !errors.Is(err, ErrNesting) {
		t.Errorf("err = %v, want ErrNesting", err)
	}
}

func TestModelByTag(t *testing.T) {
	for _, tag := range []string{"PD", "CD", "K8"} {
		m, err := ModelByTag(tag)
		if err != nil || m.Tag != tag {
			t.Errorf("ModelByTag(%q) = %v, %v", tag, m, err)
		}
	}
	if _, err := ModelByTag("P6"); err == nil {
		t.Error("unknown tag accepted")
	}
}

func TestArchString(t *testing.T) {
	if NetBurst.String() != "NetBurst" || Core2.String() != "Core2" || K8.String() != "K8" {
		t.Error("arch names wrong")
	}
	if Arch(9).String() == "" {
		t.Error("unknown arch must render")
	}
	if User.String() != "user" || Kernel.String() != "kernel" {
		t.Error("mode names wrong")
	}
}
