// Package papi models PAPI (the Performance API), the portable layer
// most performance analysts use instead of programming perfctr or
// perfmon2 directly (Section 2.4).
//
// PAPI contributes three things to the study's measurement stacks:
//
//   - portability: preset events (PAPI_TOT_INS, PAPI_TOT_CYC, ...) are
//     mapped onto processor-specific native events via per-substrate
//     preset tables;
//   - a low-level API — richer, explicit event sets, one wrapper layer
//     of user instructions around every backend call; and
//   - a high-level API — nearly configuration-free, another wrapper
//     layer, whose read call *implicitly resets* the counters. The
//     implicit reset is why the read-read and read-stop patterns cannot
//     be expressed at high level (Table 2 footnote).
//
// Each wrapper layer's user-mode instructions land inside the
// measurement window, which is why the paper finds high > low > direct
// errors consistently (Figure 6, Table 3).
package papi

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
)

// Level selects the PAPI API layer.
type Level uint8

const (
	// Low is the PAPI low-level API ("PL" in the paper's stack codes).
	Low Level = iota
	// High is the PAPI high-level API ("PH").
	High
)

// String returns "low" or "high".
func (l Level) String() string {
	if l == Low {
		return "low"
	}
	return "high"
}

// Preset is a portable PAPI event name.
type Preset uint8

// The presets used in the study plus the common hardware set.
const (
	TOT_INS Preset = iota // PAPI_TOT_INS: total retired instructions
	TOT_CYC               // PAPI_TOT_CYC: total cycles
	BR_MSP                // PAPI_BR_MSP: mispredicted branches
	L1_ICM                // PAPI_L1_ICM: L1 instruction cache misses
	TLB_IM                // PAPI_TLB_IM: instruction TLB misses
	L1_DCM                // PAPI_L1_DCM: L1 data cache misses
	RES_STL               // PAPI_RES_STL: resource stalls (unavailable here)
)

// String returns the PAPI preset name.
func (p Preset) String() string {
	switch p {
	case TOT_INS:
		return "PAPI_TOT_INS"
	case TOT_CYC:
		return "PAPI_TOT_CYC"
	case BR_MSP:
		return "PAPI_BR_MSP"
	case L1_ICM:
		return "PAPI_L1_ICM"
	case TLB_IM:
		return "PAPI_TLB_IM"
	case L1_DCM:
		return "PAPI_L1_DCM"
	case RES_STL:
		return "PAPI_RES_STL"
	}
	return fmt.Sprintf("PAPI_preset(%d)", uint8(p))
}

// presetMap maps presets to the simulator's generic events; the backend
// then resolves the generic event to the processor's native encoding.
// RES_STL is deliberately absent: not every preset is available on every
// substrate, and callers must handle ErrNoPreset.
var presetMap = map[Preset]cpu.Event{
	TOT_INS: cpu.EventInstrRetired,
	TOT_CYC: cpu.EventCoreCycles,
	BR_MSP:  cpu.EventBrMispRetired,
	L1_ICM:  cpu.EventICacheMiss,
	TLB_IM:  cpu.EventITLBMiss,
	L1_DCM:  cpu.EventDCacheMiss,
}

// ErrNoPreset reports a preset with no mapping on the current substrate.
type ErrNoPreset struct{ Preset Preset }

// Error implements error.
func (e *ErrNoPreset) Error() string {
	return fmt.Sprintf("papi: preset %s not available on this substrate", e.Preset)
}

// Resolve maps a preset to the generic event counted by the simulator.
func Resolve(p Preset) (cpu.Event, error) {
	ev, ok := presetMap[p]
	if !ok {
		return cpu.EventNone, &ErrNoPreset{Preset: p}
	}
	return ev, nil
}

// wrapCost is the user-mode instruction overhead PAPI adds around one
// backend call. The component glue differs per backend (the perfctr
// component maintains more state per call), which Table 3's
// level-vs-level deltas expose: +95/+102 on perfmon, +88/+84 on perfctr.
// PerCtr is the additional per-counter bookkeeping beyond the first
// (event-set iteration, value copying); with many counters in use —
// up to 18 on the Pentium D — this dominates the user-mode error, part
// of why Figure 1's user-mode error distribution has a ~1500
// instruction interquartile range.
type wrapCost struct {
	Pre, Post int
	PerCtr    int
}

var (
	lowWrap = map[string]wrapCost{
		"pm": {Pre: 48, Post: 47, PerCtr: 20},
		"pc": {Pre: 42, Post: 42, PerCtr: 20},
	}
	highWrap = map[string]wrapCost{
		"pm": {Pre: 54, Post: 48, PerCtr: 40},
		"pc": {Pre: 42, Post: 42, PerCtr: 40},
	}
)

// PAPI is a PAPI event set bound to a backend substrate. It implements
// core.Infrastructure as the paper's PLpm/PLpc/PHpm/PHpc stacks.
type PAPI struct {
	backend core.Infrastructure
	level   Level
	key     string
}

// New returns a PAPI layer over the given backend (a *perfctr.Perfctr
// or *perfmon.Perfmon context).
func New(backend core.Infrastructure, level Level) *PAPI {
	return &PAPI{backend: backend, level: level, key: level.String() + "/" + backend.HarnessKey()}
}

// Name returns the paper's stack code: PLpm, PLpc, PHpm, or PHpc.
func (p *PAPI) Name() string {
	prefix := "PL"
	if p.level == High {
		prefix = "PH"
	}
	return prefix + p.backend.Name()
}

// Backend returns the substrate code ("pm" or "pc").
func (p *PAPI) Backend() string { return p.backend.Backend() }

// HarnessKey names the level and the backend's key.
func (p *PAPI) HarnessKey() string { return p.key }

// Level returns the API layer.
func (p *PAPI) Level() Level { return p.level }

// NumCounters returns the configured counter count.
func (p *PAPI) NumCounters() int { return p.backend.NumCounters() }

// SetupPresets programs the event set from PAPI presets under a
// measurement mode — the way PAPI users express configurations.
func (p *PAPI) SetupPresets(presets []Preset, mode core.MeasureMode) error {
	specs := make([]core.CounterSpec, len(presets))
	for i, pr := range presets {
		ev, err := Resolve(pr)
		if err != nil {
			return err
		}
		specs[i] = core.Spec(ev, mode)
	}
	return p.Setup(specs)
}

// Setup programs the event set (generic-event form).
func (p *PAPI) Setup(specs []core.CounterSpec) error {
	return p.backend.Setup(specs)
}

// wrap returns this layer's per-call overhead.
func (p *PAPI) wrap() wrapCost {
	if p.level == High {
		return highWrap[p.Backend()]
	}
	return lowWrap[p.Backend()]
}

// emitWrapped surrounds a backend call with the layer's user-mode glue.
// The high-level API is implemented on the low-level one, so it pays
// both layers' overheads. Per-counter bookkeeping splits evenly across
// the pre and post sides.
func (p *PAPI) emitWrapped(b *isa.Builder, inner func(*isa.Builder)) {
	extra := 0
	if n := p.NumCounters(); n > 1 {
		extra = (n - 1) * p.wrap().PerCtr / 2
	}
	w := p.wrap()
	if p.level == High {
		lw := lowWrap[p.Backend()]
		lextra := 0
		if n := p.NumCounters(); n > 1 {
			lextra = (n - 1) * lw.PerCtr / 2
		}
		b.ALUBlock(w.Pre + extra)
		b.ALUBlock(lw.Pre + lextra)
		inner(b)
		b.ALUBlock(lw.Post + lextra)
		b.ALUBlock(w.Post + extra)
		return
	}
	b.ALUBlock(w.Pre + extra)
	inner(b)
	b.ALUBlock(w.Post + extra)
}

// EmitPrepare emits PAPI_reset+PAPI_start (low) or PAPI_start_counters
// (high).
func (p *PAPI) EmitPrepare(b *isa.Builder) {
	p.emitWrapped(b, p.backend.EmitPrepare)
}

// EmitStart emits PAPI_start without reset.
func (p *PAPI) EmitStart(b *isa.Builder) {
	p.emitWrapped(b, p.backend.EmitStart)
}

// EmitStop emits PAPI_stop / PAPI_stop_counters.
func (p *PAPI) EmitStop(b *isa.Builder) {
	p.emitWrapped(b, p.backend.EmitStop)
}

// EmitRead emits PAPI_read (low) or PAPI_read_counters (high). The
// high-level read additionally resets the counters after capturing them
// — instructions that land after the capture point and therefore
// outside the window, but which destroy the running count and rule out
// the read-read and read-stop patterns.
func (p *PAPI) EmitRead(b *isa.Builder, phase core.Phase) {
	p.emitWrapped(b, func(b *isa.Builder) {
		p.backend.EmitRead(b, phase)
		if p.level == High {
			p.backend.EmitPrepare(b) // implicit reset+restart
		}
	})
}

// SupportsReadWithoutReset reports false at high level: the implicit
// reset in PAPI_read_counters makes c1-c0 meaningless for rr/ro.
func (p *PAPI) SupportsReadWithoutReset() bool {
	return p.level == Low && p.backend.SupportsReadWithoutReset()
}

// Teardown releases the backend context.
func (p *PAPI) Teardown() { p.backend.Teardown() }
