// Package cpu simulates the study's three IA32 processors (Table 1) at
// the level the paper's error analysis needs: an executing core with a
// cycle clock and TSC, a per-model PMU with programmable (and, on Core,
// fixed) counters that gate on privilege mode, counter overflow
// interrupts, a periodic timer interrupt, and the per-event encodings
// (the vendor mnemonics libpfm and libperfctr program).
//
// Everything above — the kernel, the counter-access infrastructures,
// the measurement engine — observes hardware state only through this
// package, and every simulated instruction that touches the clock or a
// counter is deterministic in the core's seed, which is what makes
// whole-service responses reproducible byte for byte.
package cpu

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/xrand"
)

// Mode is the processor privilege level. The study distinguishes only
// user and kernel mode (Section 2.5).
type Mode uint8

const (
	// User is unprivileged execution.
	User Mode = iota
	// Kernel is privileged execution (syscall and interrupt handlers).
	Kernel
)

// String returns "user" or "kernel".
func (m Mode) String() string {
	if m == User {
		return "user"
	}
	return "kernel"
}

// Capture records the value observed by one RDPMC/RDTSC instruction that
// carries a capture slot. The measurement patterns compute c0/c1 (and
// hence c-delta) from these.
type Capture struct {
	// Slot is the capture slot from the instruction.
	Slot int
	// Counter is the programmable counter index, or TSCCounter.
	Counter int
	// Value is the observed (virtualized, if an extension is installed)
	// counter value.
	Value int64
	// Cycle is the global cycle time of the capture.
	Cycle float64
	// Mode is the privilege mode the capture executed in.
	Mode Mode
}

// TSCCounter is the Counter value of a time-stamp-counter capture.
const TSCCounter = -1

// Timer models the periodic timer interrupt (the Linux tick). Its
// handler executes in kernel mode and is the mechanism behind the
// duration-dependent measurement error of Section 5.
type Timer struct {
	// Period is the cycle distance between ticks (GHz*1e9/HZ).
	Period float64
	// Next is the cycle time of the next tick.
	Next float64
	// Handler is the kernel tick handler; nil disables delivery.
	Handler *isa.Program
	// Enabled gates delivery.
	Enabled bool
	// SkewBias shifts the per-tick user-count attribution rounding;
	// kernel extensions differ in how precisely they save and restore
	// counts around an interrupt, so the installed extension sets this.
	SkewBias float64
}

// Core is one simulated processor core: the execution engine, PMU, and
// interrupt machinery. A Core is not safe for concurrent use.
type Core struct {
	// Model is the processor being simulated.
	Model *Model
	// PMU is the core's performance monitoring unit.
	PMU *PMU
	// Mode is the current privilege level.
	Mode Mode
	// Cycles is the global cycle clock (mirrors the TSC).
	Cycles float64

	// Timer is the periodic tick source.
	Timer Timer

	// FreqScale is the current clock frequency relative to nominal
	// (1.0 = the model's rated GHz). Frequency scaling does not change
	// how many cycles computation takes, but memory latency — fixed in
	// wall time by the bus clock — shrinks in cycles when the core
	// clock drops (the Section 8 frequency-scaling effect).
	FreqScale float64

	// Syscalls maps syscall numbers to kernel handler programs. The
	// kernel package populates it; extensions register their handlers
	// through the kernel.
	Syscalls map[int]*isa.Program

	// OverflowHandler is the kernel's PMU-interrupt handler, run once
	// per counter period crossing when sampling is configured.
	OverflowHandler *isa.Program
	// OnOverflow is a host callback fired per crossing with the address
	// of the code executing when the counter overflowed — the signal a
	// sampling profiler builds its histogram from.
	OnOverflow func(counter int, addr uint64, mode Mode)

	// VirtualRead, when set by a kernel extension, supplies the value an
	// RDPMC capture observes for a counter (the per-thread virtualized
	// count). When nil, captures read the raw hardware counter.
	VirtualRead func(counter int) int64
	// OnMSR is invoked after a WRMSR counter-control write so extensions
	// can mirror resets into their per-thread state.
	OnMSR func(action isa.MSRAction, mask uint64)
	// OnTick is invoked after each timer-interrupt handler completes
	// (scheduler hook).
	OnTick func()

	// NestedRun, when set by an execution engine, runs nested handler
	// programs (syscall, timer, and PMU-overflow handlers) in place of
	// the built-in interpreter loop, so an engine's acceleration applies
	// to kernel code too. When nil, handlers interpret per instruction.
	NestedRun func(p *isa.Program) error

	// Captures collects counter reads of the current Run.
	Captures []Capture
	// RetiredUser and RetiredKernel tally retired instructions per mode
	// for diagnostics and tests; they are independent of PMU gating.
	RetiredUser   int64
	RetiredKernel int64
	// TimerDeliveries counts delivered ticks in the current Run.
	TimerDeliveries int
	// OverflowDeliveries counts delivered PMU interrupts; OverflowsLost
	// counts crossings dropped while interrupts were masked (crossings
	// caused by the overflow handlers themselves).
	OverflowDeliveries int
	OverflowsLost      int64

	rng     *xrand.Rand
	inIRQ   bool
	inPMI   bool
	depth   int
	curAddr uint64      // address of the executing code region
	warm    []PageLines // pages and lines fetched this run (cold-miss model)
}

// PageLines is a fetch footprint within one 4 KiB i-TLB page: bit i of
// Lines is the page's i-th 64-byte i-cache line. A page holds exactly
// 64 lines, so one mask is the page's whole line set.
type PageLines struct {
	Page  uint64
	Lines uint64
}

// FetchAt returns the page and line an instruction address fetches.
func FetchAt(addr uint64) PageLines { return PageLines{addr >> 12, 1 << (addr >> 6 & 63)} }

// maxNesting bounds handler recursion (user -> syscall -> interrupt).
const maxNesting = 8

// NewCore returns a core for the given model with a zero seed.
func NewCore(m *Model) *Core {
	return &Core{
		Model:     m,
		PMU:       NewPMU(m),
		FreqScale: 1.0,
		Syscalls:  make(map[int]*isa.Program),
		rng:       xrand.New(0),
	}
}

// ClassCost returns the cycle cost of one instruction of the given
// class at the current clock frequency: memory costs scale with the
// clock, core costs do not. FreqScale is always a dyadic rational (1.0
// or 0.5), so scaled costs stay on the exact-addition grid (see
// CycleGrain).
func (c *Core) ClassCost(cl Class) float64 {
	cost := c.Model.opCycleCost(cl)
	if cl == ClassMem {
		cost *= c.FreqScale
	}
	return cost
}

// ClassOf returns the cost class of an op whose accounting is a plain
// retire — the mapping exec1 costs by and block summaries count by. The
// second result is false for ops with structured execution (OpLoop).
func ClassOf(op isa.Op) (Class, bool) {
	switch op {
	case isa.OpALU, isa.OpNop, isa.OpVarWork, isa.OpHalt:
		return ClassALU, true
	case isa.OpLoad, isa.OpStore:
		return ClassMem, true
	case isa.OpBranch:
		return ClassBranch, true
	case isa.OpRDPMC:
		return ClassRDPMC, true
	case isa.OpRDTSC:
		return ClassRDTSC, true
	case isa.OpRDMSR, isa.OpWRMSR:
		return ClassMSR, true
	case isa.OpSyscall, isa.OpSysRet:
		return ClassSyscall, true
	case isa.OpIRet:
		return ClassIRQ, true
	default:
		return 0, false
	}
}

// SeedRun reseeds the per-run random stream and randomizes the timer
// phase. Call it before each Run to model a measurement taken at an
// arbitrary point relative to the tick.
func (c *Core) SeedRun(seed uint64) {
	c.rng = xrand.New(seed)
	if c.Timer.Period > 0 {
		c.Timer.Next = c.Cycles + c.rng.Float64()*c.Timer.Period
	}
}

// ResetClock rewinds the global cycle clock (and with it the TSC) to
// the boot instant and re-phases the timer accordingly. Together with
// PMU.ZeroState it erases the only execution state that survives Run:
// absolute time. Without it, the fractional cycles accumulated by
// earlier measurements shift the int64 truncation of later cycle
// captures, making a system's results depend on its history.
func (c *Core) ResetClock() {
	c.Cycles = 0
	c.PMU.ZeroState()
	if c.Timer.Period > 0 {
		c.Timer.Next = c.Timer.Period
	}
}

// InstallTimer configures the periodic tick. hz is the tick frequency.
func (c *Core) InstallTimer(hz float64, handler *isa.Program) {
	c.Timer.Period = c.Model.GHz * 1e9 / hz
	c.Timer.Next = c.Cycles + c.Timer.Period
	c.Timer.Handler = handler
	c.Timer.Enabled = true
}

// Errors returned by the execution engine.
var (
	ErrPrivilege   = errors.New("cpu: privileged instruction in user mode")
	ErrBadSyscall  = errors.New("cpu: syscall number not registered")
	ErrNesting     = errors.New("cpu: handler nesting too deep")
	ErrStrayReturn = errors.New("cpu: sysret/iret outside handler")
)

// Run executes a user program to completion (OpHalt). Captures and
// per-run tallies are reset. The caller is responsible for PMU
// configuration; counters keep their values across runs unless reset.
func (c *Core) Run(p *isa.Program) error {
	c.BeginRun()
	return c.runProg(p)
}

// BeginRun resets per-run state: captures, tallies, handler depth,
// fetch warmth, and privilege mode. Execution engines that drive the
// core through Step call it in place of Run.
func (c *Core) BeginRun() {
	c.Captures = c.Captures[:0]
	c.RetiredUser, c.RetiredKernel = 0, 0
	c.TimerDeliveries = 0
	c.OverflowDeliveries = 0
	c.OverflowsLost = 0
	c.inIRQ = false
	c.inPMI = false
	c.depth = 0
	c.warm = c.warm[:0]
	c.Mode = User
}

// PushFrame enters a program frame (the top-level program or a nested
// handler), enforcing the nesting bound. Callers must arrange for
// PopFrame to run exactly once per PushFrame call — even when PushFrame
// returns an error — which keeps the depth accounting of the original
// recursive interpreter.
func (c *Core) PushFrame(p *isa.Program) error {
	c.depth++
	if c.depth > maxNesting {
		return fmt.Errorf("%w (program %q)", ErrNesting, p.Name)
	}
	return nil
}

// PopFrame leaves the current program frame.
func (c *Core) PopFrame() { c.depth-- }

// runProg interprets a program until OpHalt (top level) or
// OpSysRet/OpIRet (handlers). Handlers execute via nested calls, so a
// syscall's instructions retire synchronously inside the OpSyscall
// instruction of the caller.
func (c *Core) runProg(p *isa.Program) error {
	err := c.PushFrame(p)
	defer c.PopFrame()
	if err != nil {
		return err
	}

	pc := 0
	for {
		next, done, err := c.Step(p, pc)
		if done || err != nil {
			return err
		}
		pc = next
	}
}

// runNested executes a nested handler program through the installed
// execution engine, or the interpreter when none is installed.
func (c *Core) runNested(p *isa.Program) error {
	if c.NestedRun != nil {
		return c.NestedRun(p)
	}
	return c.runProg(p)
}

// Step executes exactly one instruction of p at pc inside the current
// frame and returns the next pc. done reports frame completion (OpHalt,
// OpSysRet, OpIRet); terminators return without the post-instruction
// interrupt checks, exactly as the interpreter loop always has. All
// other instructions end with pending timer ticks and counter overflows
// delivered. Step is the single definition of instruction semantics:
// the interpreter loop and the compiled engine's stepwise fallback both
// run through it.
func (c *Core) Step(p *isa.Program, pc int) (next int, done bool, err error) {
	if pc < 0 || pc >= len(p.Code) {
		return 0, false, fmt.Errorf("cpu: pc %d out of range in %q", pc, p.Name)
	}
	in := p.Code[pc]
	switch in.Op {
	case isa.OpHalt:
		c.retire(1, ClassALU)
		return pc, true, nil

	case isa.OpSysRet:
		if c.depth < 2 {
			return 0, false, fmt.Errorf("%w (sysret in %q)", ErrStrayReturn, p.Name)
		}
		c.retire(1, ClassSyscall)
		return pc, true, nil

	case isa.OpIRet:
		if c.depth < 2 {
			return 0, false, fmt.Errorf("%w (iret in %q)", ErrStrayReturn, p.Name)
		}
		c.retire(1, ClassIRQ)
		return pc, true, nil

	case isa.OpBranch:
		c.execBranch(p, pc, in)
		if in.B != 0 {
			next = int(in.A)
		} else {
			next = pc + 1
		}

	case isa.OpLoop:
		if err := c.execLoop(p, pc, in); err != nil {
			return 0, false, err
		}
		next = pc + 1 + int(in.B)

	case isa.OpSyscall:
		if err := c.execSyscall(in); err != nil {
			return 0, false, err
		}
		next = pc + 1

	default:
		if err := c.exec1(p, pc, in); err != nil {
			return 0, false, err
		}
		next = pc + 1
	}
	if err := c.CheckInterrupts(); err != nil {
		return 0, false, err
	}
	return next, false, nil
}

// CheckInterrupts delivers pending timer ticks and counter overflows —
// the post-instruction check the interpreter runs after every step and
// the compiled engine runs after every bulk block.
func (c *Core) CheckInterrupts() error {
	if err := c.maybeInterrupt(); err != nil {
		return err
	}
	return c.deliverOverflows()
}

// deliverOverflows runs the PMU interrupt for every pending counter
// period crossing. Crossings produced by the handlers themselves are
// dropped — the PMU interrupt is masked during delivery, as on real
// hardware — and tallied in OverflowsLost.
func (c *Core) deliverOverflows() error {
	if c.OnOverflow == nil && c.OverflowHandler == nil {
		// No sampling consumer: discard cheaply so the queue cannot grow.
		if len(c.PMU.pending) > 0 {
			c.PMU.TakeOverflows()
		}
		return nil
	}
	if c.inPMI {
		return nil
	}
	ovfs := c.PMU.TakeOverflows()
	if len(ovfs) == 0 {
		return nil
	}
	c.inPMI = true
	// Samples attribute to the code that was executing at the crossing,
	// not to the handler; the handler's own fetches must not disturb
	// the tracked address.
	addr := c.curAddr
	defer func() {
		c.inPMI = false
		c.curAddr = addr
	}()
	for _, o := range ovfs {
		for k := int64(0); k < o.Crossings; k++ {
			c.OverflowDeliveries++
			if c.OnOverflow != nil {
				c.OnOverflow(o.Counter, addr, c.Mode)
			}
			if c.OverflowHandler != nil {
				prev := c.Mode
				c.Mode = Kernel
				c.addCycles(c.ClassCost(ClassIRQ))
				err := c.runNested(c.OverflowHandler)
				c.Mode = prev
				if err != nil {
					return err
				}
			}
		}
	}
	for _, o := range c.PMU.TakeOverflows() {
		c.OverflowsLost += o.Crossings
	}
	return nil
}

// exec1 executes a non-control-flow instruction.
func (c *Core) exec1(p *isa.Program, pc int, in isa.Instr) error {
	c.fetchPenalty(p.Addr(pc))
	switch in.Op {
	case isa.OpALU, isa.OpNop, isa.OpLoad, isa.OpStore:
		cl, _ := ClassOf(in.Op)
		c.retire(1, cl)

	case isa.OpVarWork:
		extra := c.rng.Geometric(int(in.A), varWorkDecay)
		c.retire(1+int64(extra), ClassALU)

	case isa.OpRDPMC:
		c.retire(1, ClassRDPMC)
		if in.Slot != isa.NoSlot {
			v := c.readCounterValue(int(in.A))
			c.Captures = append(c.Captures, Capture{
				Slot: int(in.Slot), Counter: int(in.A), Value: v,
				Cycle: c.Cycles, Mode: c.Mode,
			})
		}

	case isa.OpRDTSC:
		c.retire(1, ClassRDTSC)
		if in.Slot != isa.NoSlot {
			c.Captures = append(c.Captures, Capture{
				Slot: int(in.Slot), Counter: TSCCounter, Value: c.PMU.TSC(),
				Cycle: c.Cycles, Mode: c.Mode,
			})
		}

	case isa.OpRDMSR:
		if c.Mode != Kernel {
			return fmt.Errorf("%w: rdmsr in %q", ErrPrivilege, p.Name)
		}
		c.retire(1, ClassMSR)

	case isa.OpWRMSR:
		if c.Mode != Kernel {
			return fmt.Errorf("%w: wrmsr in %q", ErrPrivilege, p.Name)
		}
		// The control write takes effect *at this instruction*: everything
		// executed before an enable (or after a disable) is outside the
		// measurement window. Retire first so that an enabling WRMSR does
		// not count itself.
		c.retire(1, ClassMSR)
		action, mask := isa.MSRAction(in.A), uint64(in.B)
		switch action {
		case isa.MSREnable:
			c.PMU.Enable(mask)
		case isa.MSRDisable:
			c.PMU.Disable(mask)
		case isa.MSRReset:
			c.PMU.Reset(mask)
		default:
			return fmt.Errorf("cpu: unknown msr action %d in %q", in.A, p.Name)
		}
		if c.OnMSR != nil {
			c.OnMSR(action, mask)
		}

	default:
		return fmt.Errorf("cpu: unexpected op %s in %q", in.Op, p.Name)
	}
	return nil
}

// readCounterValue returns what an RDPMC-based read observes.
func (c *Core) readCounterValue(ctr int) int64 {
	if c.VirtualRead != nil {
		return c.VirtualRead(ctr)
	}
	v, err := c.PMU.Value(ctr)
	if err != nil {
		return 0
	}
	return v
}

// execBranch costs and predicts a conditional branch.
func (c *Core) execBranch(p *isa.Program, pc int, in isa.Instr) {
	c.fetchPenalty(p.Addr(pc))
	c.retire(1, ClassBranch)
	// Static not-taken prediction for forward, taken for backward: a
	// mispredict costs the model penalty and retires a BrMisp event.
	backward := in.A <= int64(pc)
	taken := in.B != 0
	if taken != backward {
		c.PMU.AddEvent(c.Mode, EventBrMispRetired, 1)
		c.addCycles(c.Model.MispredictPenalty)
	}
}

// execSyscall transitions to kernel mode and synchronously runs the
// registered handler.
func (c *Core) execSyscall(in isa.Instr) error {
	h, ok := c.Syscalls[int(in.A)]
	if !ok {
		return fmt.Errorf("%w: %d", ErrBadSyscall, in.A)
	}
	c.retire(1, ClassSyscall) // SYSENTER retires in user mode
	prev := c.Mode
	c.Mode = Kernel
	c.addCycles(c.ClassCost(ClassSyscall)) // pipeline drain on entry
	err := c.runNested(h)
	c.Mode = prev
	return err
}

// varWorkDecay is the per-step continuation probability of OpVarWork's
// geometric extra-work distribution.
const varWorkDecay = 0.35

// execLoop runs a loop block. Plain bodies (no privileged or capturing
// instructions) fast-forward analytically between timer interrupts: the
// per-iteration cycle cost is a deterministic function of the body's
// placement (the Section 6 effect), so bulk advancement is exact.
func (c *Core) execLoop(p *isa.Program, pc int, hdr isa.Instr) error {
	body := p.Code[pc+1 : pc+1+int(hdr.B)]
	iters := hdr.A
	if iters == 0 {
		return nil
	}
	bodyAddr := p.Addr(pc + 1)
	if !plainBody(body) {
		return c.execLoopStepwise(p, pc, body, iters)
	}

	var bodyBytes uint64
	var bodyRetire int64
	memOps := 0
	for _, in := range body {
		bodyBytes += uint64(in.Size)
		bodyRetire += int64(in.Retires())
		if in.Op == isa.OpLoad || in.Op == isa.OpStore {
			memOps++
		}
	}
	iterCycles := c.IterCycles(bodyAddr, bodyBytes, memOps)

	// One-time front-end warmup: first fetch of the body misses the
	// i-cache, and the loop branch mispredicts while the predictor
	// learns and once more at loop exit.
	c.fetchPenalty(bodyAddr)
	c.PMU.AddEvent(c.Mode, EventBrMispRetired, 2)
	c.addCycles(2 * c.Model.MispredictPenalty)

	// Memory-walking bodies (the Korn-style array benchmark) miss the
	// data cache once per line: sequential 8-byte accesses hit 64-byte
	// lines, so one miss per 8 loads per memory operation.
	if memOps > 0 {
		c.PMU.AddEvent(c.Mode, EventDCacheMiss, float64(memOps)*float64(iters)/8)
	}

	c.curAddr = bodyAddr
	sampled := c.OnOverflow != nil || c.OverflowHandler != nil
	remaining := iters
	for remaining > 0 {
		n := remaining
		if c.TimerActive() {
			headroom := c.Timer.Next - c.Cycles
			fit := int64(headroom / iterCycles)
			if fit < n {
				n = fit
			}
		}
		if sampled {
			// Bound the chunk at the next overflow boundary so PMU
			// interrupts fire at the crossing, as on hardware, instead
			// of batching at the chunk end.
			for _, a := range c.PMU.ArmedHeadrooms(c.Mode) {
				var perIter float64
				switch a.Event {
				case EventInstrRetired:
					perIter = float64(bodyRetire)
				case EventCoreCycles:
					perIter = iterCycles
				default:
					continue
				}
				fit := int64(float64(a.Headroom)/perIter) + 1
				if fit < n {
					n = fit
				}
			}
		}
		if n > 0 {
			c.RetireBulk(n*bodyRetire, float64(n)*iterCycles)
			remaining -= n
			if err := c.deliverOverflows(); err != nil {
				return err
			}
		}
		if remaining > 0 {
			// The next iteration crosses the tick boundary: execute it,
			// then deliver.
			c.RetireBulk(bodyRetire, iterCycles)
			remaining--
			if err := c.maybeInterrupt(); err != nil {
				return err
			}
			if err := c.deliverOverflows(); err != nil {
				return err
			}
			c.curAddr = bodyAddr
		}
	}
	return nil
}

// execLoopStepwise interprets every iteration of a non-plain body.
func (c *Core) execLoopStepwise(p *isa.Program, pc int, body []isa.Instr, iters int64) error {
	for k := int64(0); k < iters; k++ {
		for j, in := range body {
			if err := c.execStraight(p, pc+1+j, in); err != nil {
				return err
			}
			if err := c.maybeInterrupt(); err != nil {
				return err
			}
		}
	}
	return nil
}

// execStraight executes one instruction of straight-line code: control
// flow is linear, so a branch is costed and predicted but not followed
// (loop-body branches fall through by construction — Builder emits them
// only as the paper's compare-and-fall-through pattern). This is the
// per-instruction dispatch shared by the stepwise loop fallback; the
// compiled engine's block summaries count by exactly these classes.
func (c *Core) execStraight(p *isa.Program, pc int, in isa.Instr) error {
	switch in.Op {
	case isa.OpBranch:
		c.execBranch(p, pc, in)
		return nil
	case isa.OpSyscall:
		return c.execSyscall(in)
	case isa.OpLoop:
		return fmt.Errorf("cpu: nested loop blocks must be flattened (program %q)", p.Name)
	default:
		return c.exec1(p, pc, in)
	}
}

// plainBody reports whether all instructions may be bulk-advanced.
func plainBody(body []isa.Instr) bool {
	for _, in := range body {
		if !Bulkable(in.Op) {
			return false
		}
	}
	return true
}

// Bulkable reports whether an op's accounting is a fixed-cost retire
// with statically known control flow, so that a run of such ops may be
// advanced in bulk: plain loop bodies and compiled blocks. Everything
// else — PMU-visible instructions, syscalls, VarWork's random draw,
// loops, and frame terminators — is stepped.
func Bulkable(op isa.Op) bool {
	switch op {
	case isa.OpALU, isa.OpNop, isa.OpLoad, isa.OpStore, isa.OpBranch:
		return true
	}
	return false
}

// IterCycles returns the steady-state cycles per iteration for a loop
// body located at addr. This is the paper's Section 6 mechanism: the
// body's placement relative to fetch-window boundaries — which depends on
// the compiler, optimization level, and surrounding code — selects one of
// a few per-iteration costs (K8: 2 or 3 cycles; Figure 11).
func (c *Core) IterCycles(addr, bytes uint64, memOps int) float64 {
	m := c.Model
	cyc := m.LoopBaseCycles
	if addr%m.FetchWindow+bytes > m.FetchWindow {
		cyc += m.StraddleCycles
	}
	if m.PlacementQuirkMax > 0 {
		// NetBurst trace-cache rebuild sensitivity: a placement hash
		// selects one of four extra per-iteration costs.
		h := xrand.Mix(addr>>4, uint64(m.Arch))
		cyc += float64(h%4) / 3 * m.PlacementQuirkMax
	}
	// Memory latency is pinned to the bus clock, so its cycle cost
	// scales with the core frequency (Section 8's frequency-scaling
	// caveat). The result is quantized to the CycleGrain grid so that
	// bulk advancement (n iterations in one add) is bit-exact.
	cyc += float64(memOps) * 0.5 / m.BaseIPC * c.FreqScale
	return GridCycles(cyc)
}

// TimerActive reports whether tick delivery can occur now.
func (c *Core) TimerActive() bool {
	return c.Timer.Enabled && c.Timer.Handler != nil && !c.inIRQ
}

// maybeInterrupt delivers pending timer ticks.
func (c *Core) maybeInterrupt() error {
	if !c.TimerActive() {
		return nil
	}
	for c.Cycles >= c.Timer.Next {
		if err := c.deliverTimer(); err != nil {
			return err
		}
	}
	return nil
}

// deliverTimer runs one tick: attribution skew, kernel handler, return.
func (c *Core) deliverTimer() error {
	c.inIRQ = true
	c.TimerDeliveries++

	// Counter save/restore around the interrupt rounds user-attributed
	// counts by a few instructions (the source of Figure 8's tiny
	// nonzero slopes). The bias sum is quantized to the cycle grid so
	// skewed counter values stay exactly addable (see CycleGrain).
	if max := c.Model.TickSkewMax; max > 0 {
		delta := GridCycles(c.Model.TickSkewBias+c.Timer.SkewBias) +
			float64(c.rng.Intn(2*max+1)-max)
		c.PMU.SkewExclusive(delta)
	}

	prev := c.Mode
	c.Mode = Kernel
	c.addCycles(c.ClassCost(ClassIRQ))
	err := c.runNested(c.Timer.Handler)
	if c.OnTick != nil {
		c.OnTick()
	}
	c.Mode = prev
	c.inIRQ = false
	c.Timer.Next += c.Timer.Period
	return err
}

// retire counts n instructions in the current mode and advances time by
// the per-op cycle cost.
func (c *Core) retire(n int64, cl Class) {
	c.RetireBulk(n, float64(n)*c.ClassCost(cl))
}

// RetireBulk counts n instructions and cyc cycles in the current mode
// without front-end effects — the accounting primitive behind both the
// loop fast-forward and the compiled engine's block application.
func (c *Core) RetireBulk(n int64, cyc float64) {
	c.PMU.AddInstr(c.Mode, n)
	if c.Mode == User {
		c.RetiredUser += n
	} else {
		c.RetiredKernel += n
	}
	c.addCycles(cyc)
}

// addCycles advances the clock by cyc cycles in the current mode.
func (c *Core) addCycles(cyc float64) {
	c.Cycles += cyc
	c.PMU.AddCycles(c.Mode, cyc)
}

// SetExecAddr sets the executing-address tracker used for overflow
// attribution, without fetch side effects. The compiled engine uses it
// after a bulk block to leave the same attribution address a stepwise
// pass through the block would have left.
func (c *Core) SetExecAddr(addr uint64) { c.curAddr = addr }

// FetchCold reports how many of a footprint's i-cache lines and i-TLB
// pages are still cold this run, without changing tracking state.
func (c *Core) FetchCold(fp []PageLines) (lines, pages int) {
	for _, f := range fp {
		_, l, p := c.cold(f)
		lines, pages = lines+l, pages+p
	}
	return lines, pages
}

// FetchMark records a footprint as fetched and charges the lines and
// pages FetchCold just counted cold in it. Penalties are integer cycle
// constants and misses integer counts, so one grouped charge is exactly
// what per-instruction fetches would have charged.
func (c *Core) FetchMark(fp []PageLines, lines, pages int) {
	if lines|pages == 0 {
		return
	}
	for _, f := range fp {
		c.fetch(f)
	}
	c.chargeCold(lines, pages)
}

// fetchPenalty applies cold i-cache and i-TLB costs on first touch of a
// line or page, and tracks the executing address for overflow
// attribution.
func (c *Core) fetchPenalty(addr uint64) {
	c.curAddr = addr
	c.chargeCold(c.fetch(FetchAt(addr)))
}

// fetch marks f fetched and returns how many of its lines and pages
// were cold.
func (c *Core) fetch(f PageLines) (lines, pages int) {
	i, lines, pages := c.cold(f)
	if i < 0 {
		c.warm = append(c.warm, f)
	} else {
		c.warm[i].Lines |= f.Lines
	}
	return lines, pages
}

// cold returns the index of f's page in the run's fetched set (-1 when
// absent) and how many of f's lines and pages are cold. A run touches
// only a handful of pages, so a scan beats hashing.
func (c *Core) cold(f PageLines) (i, lines, pages int) {
	for i := range c.warm {
		if c.warm[i].Page == f.Page {
			return i, bits.OnesCount64(f.Lines &^ c.warm[i].Lines), 0
		}
	}
	return -1, bits.OnesCount64(f.Lines), 1
}

// chargeCold charges cold i-cache line and i-TLB page misses.
func (c *Core) chargeCold(lines, pages int) {
	if lines > 0 {
		c.PMU.AddEvent(c.Mode, EventICacheMiss, float64(lines))
		c.addCycles(float64(lines) * c.Model.ICacheMissPenalty)
	}
	if pages > 0 {
		c.PMU.AddEvent(c.Mode, EventITLBMiss, float64(pages))
		c.addCycles(float64(pages) * c.Model.ITLBMissPenalty)
	}
}
