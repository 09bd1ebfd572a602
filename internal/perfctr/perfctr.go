// Package perfctr models the perfctr kernel extension (Mikael
// Pettersson's Linux patch, version 2.6.29 in the study) and its
// user-space library libperfctr.
//
// perfctr's distinguishing feature is its fast user-mode read path:
// virtualized per-thread counts are mapped into user space and resynced
// with RDPMC plus a TSC read, so a read needs no system call — but only
// when the TSC is enabled in the counter selection. With the TSC
// disabled, reads fall back to a syscall, which is why the paper finds
// that *disabling* the extra TSC counter makes measurements drastically
// worse (Figure 4, Section 8 guidelines).
package perfctr

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/vcounter"
)

// Syscall numbers of the modeled vperfctr interface.
const (
	sysControl = 100 // program + reset + start
	sysStart   = 101 // start without reset
	sysStop    = 102
	sysReadA   = 103 // slow read, captures into phase-c0 slots
	sysReadB   = 104 // slow read, captures into phase-c1 slots
)

// extName identifies the extension to the kernel's syscall registry.
const extName = "perfctr"

// Perfctr is a measurement context on the perfctr stack. It implements
// core.Infrastructure as the paper's "pc" configuration.
type Perfctr struct {
	k       *kernel.Kernel
	withTSC bool
	vset    *vcounter.Set
	specs   []core.CounterSpec
	mask    uint64
}

// New installs the perfctr extension into the kernel and returns the
// libperfctr context. withTSC selects whether the TSC is included in the
// counter selection, enabling the fast user-mode read path.
func New(k *kernel.Kernel, withTSC bool) (*Perfctr, error) {
	p := &Perfctr{k: k, withTSC: withTSC}
	k.InstallTickWork(tickWork[k.Model().Tag], skewBias)
	k.AddSwitchHook(p)
	if err := p.installHandlers(0); err != nil {
		return nil, err
	}
	return p, nil
}

// Save implements kernel.SwitchHook by delegating to the live virtual
// counter set, if a measurement context exists.
func (p *Perfctr) Save(tid int) {
	if p.vset != nil {
		p.vset.Save(tid)
	}
}

// Restore implements kernel.SwitchHook.
func (p *Perfctr) Restore(tid int) {
	if p.vset != nil {
		p.vset.Restore(tid)
	}
}

// WithTSC reports whether the TSC is part of the counter selection.
func (p *Perfctr) WithTSC() bool { return p.withTSC }

// Name returns the stack code "pc".
func (p *Perfctr) Name() string { return "pc" }

// Backend returns "pc".
func (p *Perfctr) Backend() string { return "pc" }

// NumCounters returns the configured counter count.
func (p *Perfctr) NumCounters() int { return len(p.specs) }

// kscale scales a Core 2 Duo kernel path length to this processor.
func (p *Perfctr) kscale(n int) int {
	v := int(float64(n)*p.k.Model().KernelCost + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// Setup programs the requested counters and regenerates the kernel
// handlers for the new selection. Counters are left disabled at zero;
// the per-thread virtual state is rebuilt.
func (p *Perfctr) Setup(specs []core.CounterSpec) error {
	m := p.k.Model()
	if len(specs) > m.NumProgrammable {
		return &core.ErrTooManyCounters{Requested: len(specs), Available: m.NumProgrammable, Model: m.Name}
	}
	pmu := p.k.Core.PMU
	for i, s := range specs {
		if err := pmu.Configure(i, cpu.CounterConfig{Event: s.Event, User: s.User, OS: s.OS}); err != nil {
			return fmt.Errorf("perfctr: %v", err)
		}
	}
	p.specs = append(p.specs[:0], specs...)
	p.mask = (uint64(1) << uint(len(specs))) - 1
	pmu.Disable(p.mask)
	pmu.Reset(p.mask)

	p.vset = vcounter.New(pmu, len(specs), p.k.CurrentThread())
	p.k.Core.VirtualRead = p.vset.Read
	p.k.Core.OnMSR = func(action isa.MSRAction, mask uint64) {
		if action == isa.MSRReset {
			p.vset.ResetAccum(mask)
		}
	}
	return p.installHandlers(len(specs))
}

// installHandlers installs the kernel-side syscall handlers for a
// selection of n counters. The handlers are pure functions of the
// processor's kernel cost and n, so the handlers table builds them
// once per pair and every context shares them.
func (p *Perfctr) installHandlers(n int) error {
	progs := handlers.Get(handlerKey{p.k.Model().KernelCost, n}, func() [5]*isa.Program {
		return [5]*isa.Program{
			p.buildControl(n, true),
			p.buildControl(n, false),
			p.buildStop(n),
			p.buildSlowRead(n, core.PhaseC0),
			p.buildSlowRead(n, core.PhaseC1),
		}
	})
	for i, nr := range [5]int{sysControl, sysStart, sysStop, sysReadA, sysReadB} {
		if err := p.k.UpdateSyscall(nr, extName, progs[i]); err != nil {
			return err
		}
	}
	return nil
}

// handlerKey identifies one handler set: the processor's kernel cost
// (the only model parameter the handlers read) and the counter count.
type handlerKey struct {
	kernelCost float64
	n          int
}

// handlers interns every handler set built so far, in the order
// installHandlers registers them.
var handlers isa.Table[handlerKey, [5]*isa.Program]

// buildControl models the vperfctr control handler: per-counter
// programming, optional reset, enable, and the exit path. Only the
// instructions after the enabling WRMSR land inside an ar/ao window.
func (p *Perfctr) buildControl(n int, reset bool) *isa.Program {
	b := isa.NewBuilder("perfctr_sys_control", 0xffff_a000_0000)
	b.ALUBlock(p.kscale(ctlKernelPre + ctlKernelPerCtr*n))
	b.Emit(isa.VarWork(kernelJitterMax, 10))
	if reset {
		b.Emit(isa.WRMSR(isa.MSRReset, p.maskFor(n)))
	}
	b.Emit(isa.WRMSR(isa.MSREnable, p.maskFor(n)))
	b.ALUBlock(p.kscale(ctlKernelPost + ctlPostPerCtr*maxInt(n-1, 0)))
	b.Emit(isa.VarWork(kernelJitterMax, 11))
	b.Emit(isa.SysRet())
	return b.Build()
}

// buildStop models vperfctr suspend: a short entry, the disable, and a
// longer bookkeeping tail that is already outside the window.
func (p *Perfctr) buildStop(n int) *isa.Program {
	b := isa.NewBuilder("perfctr_sys_stop", 0xffff_a100_0000)
	b.ALUBlock(p.kscale(stopKernelPre))
	b.Emit(isa.WRMSR(isa.MSRDisable, p.maskFor(n)))
	b.ALUBlock(p.kscale(stopKernelPost))
	b.Emit(isa.VarWork(kernelJitterMax, 12))
	b.Emit(isa.SysRet())
	return b.Build()
}

// buildSlowRead models the syscall read used when the TSC is off: the
// kernel walks the counter state and captures each counter in turn.
func (p *Perfctr) buildSlowRead(n int, phase core.Phase) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("perfctr_sys_read_%d", phase), 0xffff_a200_0000)
	b.ALUBlock(p.kscale(slowReadKernelPre))
	b.Emit(isa.VarWork(kernelJitterMax, 13))
	for i := 0; i < n; i++ {
		if i > 0 {
			b.ALUBlock(p.kscale(slowReadPerCtr))
		}
		b.Emit(isa.RDPMC(i, phase.SlotFor(i, n)))
	}
	b.ALUBlock(p.kscale(slowReadKernelPost))
	b.Emit(isa.VarWork(kernelJitterMax, 14))
	b.Emit(isa.SysRet())
	return b.Build()
}

// maskFor returns the enable mask for n counters.
func (p *Perfctr) maskFor(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return (uint64(1) << uint(n)) - 1
}

// EmitPrepare emits the libperfctr "reset and start" call: a single
// control syscall.
func (p *Perfctr) EmitPrepare(b *isa.Builder) {
	b.ALUBlock(ctlUserPre)
	b.Emit(isa.Syscall(sysControl))
	b.ALUBlock(ctlUserPost)
	b.Emit(isa.VarWork(userJitterMax, 20))
}

// EmitStart emits a start without reset (the rr/ro patterns).
func (p *Perfctr) EmitStart(b *isa.Builder) {
	b.ALUBlock(ctlUserPre)
	b.Emit(isa.Syscall(sysStart))
	b.ALUBlock(ctlUserPost)
	b.Emit(isa.VarWork(userJitterMax, 21))
}

// EmitStop emits the suspend call.
func (p *Perfctr) EmitStop(b *isa.Builder) {
	b.ALUBlock(stopUserPre)
	b.Emit(isa.Syscall(sysStop))
	b.ALUBlock(stopUserPost)
	b.Emit(isa.VarWork(userJitterMax, 22))
}

// EmitRead emits a read of all configured counters. With the TSC enabled
// this is the fast pure-user-mode path (per-counter RDPMC plus a TSC
// resync); without it, a syscall.
func (p *Perfctr) EmitRead(b *isa.Builder, phase core.Phase) {
	n := len(p.specs)
	if p.withTSC {
		fc := fastRead[p.k.Model().Tag]
		b.ALUBlock(fc.Pre)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.ALUBlock(fc.PerCtr)
			}
			b.Emit(isa.RDPMC(i, phase.SlotFor(i, n)))
		}
		b.Emit(isa.RDTSC(isa.NoSlot))
		b.ALUBlock(fc.TSCTail - 1) // the RDTSC is part of the tail
		b.Emit(isa.VarWork(userJitterMax, 23))
		b.ALUBlock(fc.Post)
		return
	}
	perCtr := slowReadUserPerCtr * maxInt(n-1, 0)
	b.ALUBlock(slowReadUserPre + perCtr)
	if phase == core.PhaseC0 {
		b.Emit(isa.Syscall(sysReadA))
	} else {
		b.Emit(isa.Syscall(sysReadB))
	}
	b.ALUBlock(slowReadUserPost + perCtr)
	b.Emit(isa.VarWork(userJitterMax, 24))
}

// SupportsReadWithoutReset reports true: libperfctr reads do not reset.
func (p *Perfctr) SupportsReadWithoutReset() bool { return true }

// Teardown disables and clears the configured counters.
func (p *Perfctr) Teardown() {
	if p.mask != 0 {
		p.k.Core.PMU.Disable(p.mask)
		p.k.Core.PMU.Reset(p.mask)
	}
	p.k.Core.VirtualRead = nil
	p.k.Core.OnMSR = nil
	p.specs = nil
	p.mask = 0
}

// VSet exposes the virtual counter set for multi-thread tests.
func (p *Perfctr) VSet() *vcounter.Set { return p.vset }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
