package engine

import (
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// Compiled is the block-dispatch engine: programs are lowered once into
// basic blocks with precomputed event-delta summaries, and execution
// bulk-applies a whole block per dispatch wherever that is provably
// indistinguishable from stepping — falling back to the core's
// canonical per-instruction dispatch everywhere else. Nested handler
// programs (syscall, tick, PMU overflow) run through the same machinery
// via cpu.Core.NestedRun, which is where most of the speedup comes
// from: the kernel tick handler alone is thousands of straight-line ALU
// instructions per delivery.
//
// A Compiled engine is safe for concurrent use by multiple cores; the
// per-run state it needs lives on the stack of RunProgram.
type Compiled struct {
	cache *Cache
	runs  atomic.Int64
}

// NewCompiled returns a compiled engine backed by the given cache (nil
// for a private cache with the default capacity).
func NewCompiled(cache *Cache) *Compiled {
	if cache == nil {
		cache = NewCache(DefaultCacheCapacity)
	}
	return &Compiled{cache: cache}
}

// Name implements cpu.Runner.
func (e *Compiled) Name() string { return "compiled" }

// Runs returns the number of programs this engine has executed.
func (e *Compiled) Runs() int64 { return e.runs.Load() }

// CacheStats returns the engine's compile-cache counters.
func (e *Compiled) CacheStats() CacheStats { return e.cache.Stats() }

// RunProgram implements cpu.Runner: it resets per-run core state and
// executes p to completion through block dispatch, routing nested
// handler programs through the engine as well.
func (e *Compiled) RunProgram(c *cpu.Core, p *isa.Program) error {
	e.runs.Add(1)
	// Per-run memo: within one run the same handful of programs (the
	// top-level program plus the kernel's handlers) recurs thousands of
	// times, and a pointer lookup beats re-hashing a 2000-instruction
	// tick handler on every delivery.
	memo := make(map[*isa.Program]*program, 4)
	lookup := func(q *isa.Program) *program {
		cp, ok := memo[q]
		if !ok {
			cp = e.cache.lookup(q, c.Model.Tag)
			memo[q] = cp
		}
		return cp
	}
	prev := c.NestedRun
	c.NestedRun = func(q *isa.Program) error {
		return e.runFrame(c, q, lookup(q))
	}
	defer func() { c.NestedRun = prev }()

	c.BeginRun()
	return e.runFrame(c, p, lookup(p))
}

// runFrame executes one program frame: block dispatch where a block is
// compiled and bulk application is exact, the core's Step everywhere
// else (which also handles loops, PMU-visible instructions, and frame
// terminators).
func (e *Compiled) runFrame(c *cpu.Core, p *isa.Program, cp *program) error {
	err := c.PushFrame(p)
	defer c.PopFrame()
	if err != nil {
		return err
	}

	pc := 0
	for {
		if b := cp.blockAt(pc); b != nil {
			if cyc, lines, pages, ok := canBulk(c, b); ok {
				applyBlock(c, b, cyc, lines, pages)
				if err := c.CheckInterrupts(); err != nil {
					return err
				}
				pc = b.next
				continue
			}
		}
		next, done, err := c.Step(p, pc)
		if done || err != nil {
			return err
		}
		pc = next
	}
}

// canBulk decides whether a block may be applied in bulk right now, and
// returns its class cycles and still-cold lines and pages when it may.
// Bulk application is allowed only when it is provably byte-identical
// to stepping:
//
//   - no sampling consumer is installed (overflow interrupts must fire
//     at exact crossings, which only stepping observes);
//   - the timer cannot fire strictly inside the block — per-instruction
//     costs and cold-fetch penalties are positive and exact, so if the
//     block's total cost (including the first-touch penalties of its
//     still-cold lines and pages) stays short of Timer.Next no
//     intermediate instruction can reach it.
//
// Cold fetch footprint does NOT force a fallback: first-touch i-cache
// and i-TLB penalties are integer cycle constants and integer event
// counts, so charging them en bloc (cpu.Core.FetchMark) is bit-identical
// to charging them at each instruction's fetch.
func canBulk(c *cpu.Core, b *block) (cyc float64, lines, pages int, ok bool) {
	if c.OnOverflow != nil || c.OverflowHandler != nil {
		return 0, 0, 0, false
	}
	cyc = b.cycles(c)
	lines, pages = c.FetchCold(b.footprint)
	if c.TimerActive() {
		total := cyc + (float64(lines)*c.Model.ICacheMissPenalty + float64(pages)*c.Model.ITLBMissPenalty)
		if c.Cycles+total >= c.Timer.Next {
			return 0, 0, 0, false
		}
	}
	return cyc, lines, pages, true
}

// applyBlock commits a block's precomputed deltas: cold-fetch misses,
// mispredict events, retired instructions, cycles, and the attribution
// address a stepwise pass would have left.
func applyBlock(c *cpu.Core, b *block, cyc float64, lines, pages int) {
	c.FetchMark(b.footprint, lines, pages)
	if b.misp > 0 {
		c.PMU.AddEvent(c.Mode, cpu.EventBrMispRetired, float64(b.misp))
	}
	c.RetireBulk(b.n, cyc)
	c.SetExecAddr(b.lastAddr)
}
