// Package perfmon models the perfmon2 kernel extension (Stephane
// Eranian's Linux patch, 2.6.22-070725 in the study) and its user-space
// library libpfm 3.2.
//
// All perfmon2 operations — starting, stopping, resetting, and reading
// counters — are system calls on a per-thread context. Reads walk the
// requested PMD registers in the kernel, so each additional counter
// lengthens the in-window path (Figure 5). The user-space wrappers are
// very thin, which makes direct perfmon use the most accurate stack for
// user-mode-only measurements (Table 3: median error 37 instructions).
package perfmon

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/vcounter"
)

// Syscall numbers of the modeled perfmon2 interface.
const (
	sysReset = 200 // pfm_write_pmds(0...)
	sysStart = 201 // pfm_start
	sysStop  = 202 // pfm_stop
	sysReadA = 203 // pfm_read_pmds, captures into phase-c0 slots
	sysReadB = 204 // pfm_read_pmds, captures into phase-c1 slots
)

// extName identifies the extension to the kernel's syscall registry.
const extName = "perfmon"

// Perfmon is a measurement context on the perfmon2 stack. It implements
// core.Infrastructure as the paper's "pm" configuration.
type Perfmon struct {
	k     *kernel.Kernel
	vset  *vcounter.Set
	specs []core.CounterSpec
	mask  uint64
}

// New installs the perfmon2 extension into the kernel and returns the
// libpfm context.
func New(k *kernel.Kernel) (*Perfmon, error) {
	p := &Perfmon{k: k}
	k.InstallTickWork(tickWork[k.Model().Tag], skewBias)
	k.AddSwitchHook(p)
	if err := p.installHandlers(0); err != nil {
		return nil, err
	}
	return p, nil
}

// Save implements kernel.SwitchHook.
func (p *Perfmon) Save(tid int) {
	if p.vset != nil {
		p.vset.Save(tid)
	}
}

// Restore implements kernel.SwitchHook.
func (p *Perfmon) Restore(tid int) {
	if p.vset != nil {
		p.vset.Restore(tid)
	}
}

// Name returns the stack code "pm".
func (p *Perfmon) Name() string { return "pm" }

// Backend returns "pm".
func (p *Perfmon) Backend() string { return "pm" }

// NumCounters returns the configured counter count.
func (p *Perfmon) NumCounters() int { return len(p.specs) }

// kscale scales a Core 2 Duo kernel path length to this processor.
func (p *Perfmon) kscale(n int) int {
	v := int(float64(n)*p.k.Model().KernelCost + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// Setup programs the requested counters through the libpfm event tables
// and regenerates the kernel handlers. It validates the events against
// the processor's native event set, as pfm_find_event does.
func (p *Perfmon) Setup(specs []core.CounterSpec) error {
	m := p.k.Model()
	if len(specs) > m.NumProgrammable {
		return &core.ErrTooManyCounters{Requested: len(specs), Available: m.NumProgrammable, Model: m.Name}
	}
	for _, s := range specs {
		if !cpu.SupportsEvent(m.Arch, s.Event) {
			return fmt.Errorf("perfmon: event %s has no encoding on %s", s.Event, m.Arch)
		}
	}
	pmu := p.k.Core.PMU
	for i, s := range specs {
		if err := pmu.Configure(i, cpu.CounterConfig{Event: s.Event, User: s.User, OS: s.OS}); err != nil {
			return fmt.Errorf("perfmon: %v", err)
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

// installHandlers installs the perfmon syscall handlers for n
// counters. The handlers are pure functions of the processor's kernel
// cost and n, so the handlers table builds them once per pair
// and every context shares them.
func (p *Perfmon) installHandlers(n int) error {
	progs := handlers.Get(handlerKey{p.k.Model().KernelCost, n}, func() [5]*isa.Program {
		return [5]*isa.Program{
			p.buildReset(n),
			p.buildStart(n),
			p.buildStop(n),
			p.buildRead(n, core.PhaseC0),
			p.buildRead(n, core.PhaseC1),
		}
	})
	for i, nr := range [5]int{sysReset, sysStart, sysStop, sysReadA, sysReadB} {
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

// buildReset models pfm_write_pmds zeroing the counters. It runs while
// counting is disabled, so its length is outside every window.
func (p *Perfmon) buildReset(n int) *isa.Program {
	b := isa.NewBuilder("pfm_sys_reset", 0xffff_b000_0000)
	b.ALUBlock(p.kscale(resetKernelPre))
	b.Emit(isa.WRMSR(isa.MSRReset, p.maskFor(n)))
	b.ALUBlock(p.kscale(resetKernelPost))
	b.Emit(isa.VarWork(kernelJitterMax, 30))
	b.Emit(isa.SysRet())
	return b.Build()
}

// buildStart models pfm_start: programming checks, the enable, then a
// long context-propagation exit path (inside the ar/ao window).
func (p *Perfmon) buildStart(n int) *isa.Program {
	b := isa.NewBuilder("pfm_sys_start", 0xffff_b100_0000)
	b.ALUBlock(p.kscale(startKernelPre + startKernelPerCtr*n))
	b.Emit(isa.VarWork(kernelJitterMax, 31))
	b.Emit(isa.WRMSR(isa.MSREnable, p.maskFor(n)))
	b.ALUBlock(p.kscale(startKernelPost))
	b.Emit(isa.VarWork(kernelJitterMax, 32))
	b.Emit(isa.SysRet())
	return b.Build()
}

// buildStop models pfm_stop.
func (p *Perfmon) buildStop(n int) *isa.Program {
	b := isa.NewBuilder("pfm_sys_stop", 0xffff_b200_0000)
	b.ALUBlock(p.kscale(stopKernelPre))
	b.Emit(isa.VarWork(kernelJitterMax, 33))
	b.Emit(isa.WRMSR(isa.MSRDisable, p.maskFor(n)))
	b.ALUBlock(p.kscale(stopKernelPost))
	b.Emit(isa.SysRet())
	return b.Build()
}

// buildRead models pfm_read_pmds: entry, then the per-PMD
// load-virtualize-copyout loop with each counter captured in turn, then
// the exit path. With k counters, k-1 PMD slots of work land inside the
// first counter's window — the Figure 5 register scaling.
func (p *Perfmon) buildRead(n int, phase core.Phase) *isa.Program {
	b := isa.NewBuilder(fmt.Sprintf("pfm_sys_read_%d", phase), 0xffff_b300_0000)
	b.ALUBlock(p.kscale(readKernelPre))
	b.Emit(isa.VarWork(kernelJitterMax, 34))
	for i := 0; i < n; i++ {
		if i > 0 {
			b.ALUBlock(p.kscale(readPerPMD))
		}
		b.Emit(isa.RDPMC(i, phase.SlotFor(i, n)))
	}
	b.ALUBlock(p.kscale(readKernelPost))
	b.Emit(isa.VarWork(kernelJitterMax, 35))
	b.Emit(isa.SysRet())
	return b.Build()
}

// maskFor returns the enable mask for n counters.
func (p *Perfmon) maskFor(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return (uint64(1) << uint(n)) - 1
}

// EmitPrepare emits "reset, start": two syscalls on perfmon2.
func (p *Perfmon) EmitPrepare(b *isa.Builder) {
	b.ALUBlock(resetUserPre)
	b.Emit(isa.Syscall(sysReset))
	b.ALUBlock(resetUserPost)
	p.EmitStart(b)
}

// EmitStart emits pfm_start.
func (p *Perfmon) EmitStart(b *isa.Builder) {
	b.ALUBlock(startUserPre)
	b.Emit(isa.Syscall(sysStart))
	b.ALUBlock(startUserPost)
	b.Emit(isa.VarWork(userJitterMax, 40))
}

// EmitStop emits pfm_stop.
func (p *Perfmon) EmitStop(b *isa.Builder) {
	b.ALUBlock(stopUserPre)
	b.Emit(isa.Syscall(sysStop))
	b.ALUBlock(stopUserPost)
	b.Emit(isa.VarWork(userJitterMax, 41))
}

// EmitRead emits pfm_read_pmds. The user-mode wrapper cost is
// independent of the PMD count — libpfm passes a preassembled request
// buffer — which is why the paper's Figure 5 finds perfmon's user-mode
// error flat across register counts.
func (p *Perfmon) EmitRead(b *isa.Builder, phase core.Phase) {
	b.ALUBlock(readUserPre)
	if phase == core.PhaseC0 {
		b.Emit(isa.Syscall(sysReadA))
	} else {
		b.Emit(isa.Syscall(sysReadB))
	}
	b.ALUBlock(readUserPost)
	b.Emit(isa.VarWork(userJitterMax, 42))
}

// SupportsReadWithoutReset reports true: pfm_read_pmds does not reset.
func (p *Perfmon) SupportsReadWithoutReset() bool { return true }

// Teardown disables and clears the configured counters.
func (p *Perfmon) Teardown() {
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
func (p *Perfmon) VSet() *vcounter.Set { return p.vset }
