// Package core implements the paper's contribution: a methodology for
// quantifying the measurement error of performance-counter access
// infrastructures.
//
// The methodology compares measured event counts against analytically
// known ground truth from two micro-benchmarks (Section 3.4):
//
//   - the null benchmark — zero instructions, so any count is error, and
//   - the loop benchmark — exactly 1 + 3*MAX instructions.
//
// Measurements follow one of four counter access patterns (Table 2),
// through one of six infrastructure stacks (Figure 2), counting in user
// or user+kernel mode, across compilers' optimization levels and counter
// register subsets. The package provides the benchmark definitions, the
// pattern window semantics, a single-measurement runner, and a factorial
// sweep engine; package experiments composes these into the paper's
// tables and figures.
package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// MeasureMode selects which privilege modes a measurement counts
// (Section 2.5). The paper studies user and user+kernel counting, plus
// kernel-only counting for the Figure 9 cross-check.
type MeasureMode uint8

const (
	// ModeUser counts user-mode events only.
	ModeUser MeasureMode = iota
	// ModeUserKernel counts user plus kernel mode events.
	ModeUserKernel
	// ModeKernel counts kernel-mode events only (Figure 9).
	ModeKernel
)

// String returns the mode label used in the paper's figures.
func (m MeasureMode) String() string {
	switch m {
	case ModeUser:
		return "user"
	case ModeUserKernel:
		return "user+kernel"
	case ModeKernel:
		return "kernel"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Gating returns the per-counter privilege gates for the mode.
func (m MeasureMode) Gating() (user, os bool) {
	switch m {
	case ModeUser:
		return true, false
	case ModeKernel:
		return false, true
	default:
		return true, true
	}
}

// AllModes lists the measurement modes in presentation order.
var AllModes = []MeasureMode{ModeUser, ModeUserKernel, ModeKernel}

// CounterSpec requests one counter: the event and its privilege gating.
type CounterSpec struct {
	Event cpu.Event
	User  bool
	OS    bool
}

// Spec builds the CounterSpec for an event under a measurement mode.
func Spec(ev cpu.Event, m MeasureMode) CounterSpec {
	u, o := m.Gating()
	return CounterSpec{Event: ev, User: u, OS: o}
}

// Phase distinguishes the two capture points of a pattern: c0 before the
// benchmark and c1 after it. Capture slots are assigned per phase so the
// runner can pair them.
type Phase uint8

const (
	// PhaseC0 is the capture before the benchmark runs.
	PhaseC0 Phase = iota
	// PhaseC1 is the capture after the benchmark completes.
	PhaseC1
)

// SlotFor returns the capture slot for counter i of n in the phase.
func (p Phase) SlotFor(i, n int) int {
	if p == PhaseC0 {
		return i
	}
	return n + i
}

// Infrastructure is one counter-access stack from Figure 2: perfctr or
// perfmon2 used directly, or PAPI (low- or high-level) on top of either.
// Implementations emit the *instruction sequences* their real
// counterparts execute; the measurement error then arises mechanically
// from the instructions that land inside the measurement window.
type Infrastructure interface {
	// Name is the paper's stack code: pm, pc, PLpm, PLpc, PHpm, PHpc.
	Name() string
	// Backend is "pm" (perfmon2) or "pc" (perfctr).
	Backend() string
	// HarnessKey names every input the Emit methods read apart from
	// the counter count: two infrastructures with equal keys and equal
	// NumCounters emit identical code, so a HarnessCache may share
	// their harnesses.
	HarnessKey() string

	// Setup programs the requested counters (events and privilege
	// gating) and leaves them disabled at zero, as the real stacks'
	// context-creation calls do before a measurement begins. It reports
	// an error if the processor cannot satisfy the request.
	Setup(specs []CounterSpec) error
	// NumCounters returns the number of counters configured by Setup.
	NumCounters() int

	// EmitPrepare emits the "reset, start" sequence of the ar/ao
	// patterns.
	EmitPrepare(b *isa.Builder)
	// EmitStart emits the bare "start" of the rr/ro patterns.
	EmitStart(b *isa.Builder)
	// EmitRead emits a read of all configured counters, capturing
	// counter i into phase.SlotFor(i, NumCounters()).
	EmitRead(b *isa.Builder, phase Phase)
	// EmitStop emits the "stop" call.
	EmitStop(b *isa.Builder)

	// SupportsReadWithoutReset reports whether a read leaves the counts
	// running. The PAPI high-level API resets on read, which rules out
	// the read-read and read-stop patterns (Table 2 footnote).
	SupportsReadWithoutReset() bool

	// Teardown releases the stack's kernel context between
	// configurations.
	Teardown()
}

// ErrTooManyCounters is returned by Setup when the request exceeds the
// processor's programmable counters.
type ErrTooManyCounters struct {
	Requested, Available int
	Model                string
}

// Error implements error.
func (e *ErrTooManyCounters) Error() string {
	return fmt.Sprintf("core: %d counters requested but %s has %d programmable",
		e.Requested, e.Model, e.Available)
}
