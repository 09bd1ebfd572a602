package engine

import (
	"repro/internal/cpu"
	"repro/internal/isa"
)

// block is one compiled basic block: a maximal run of bulk-advanceable
// instructions (ALU, NOP, loads, stores, branches) with its event
// deltas precomputed. Applying a block is one AddEvent for the
// mispredicts, one RetireBulk for the instructions and cycles, and one
// attribution-address update — regardless of block length.
//
// Cycle cost is not precomputed: it depends on the core's FreqScale at
// execution time, so the engine derives it per application from the
// class counts (constant within a block, since a bulk block by
// definition contains no tick that could change the frequency).
type block struct {
	// next is the pc execution continues at after the block: the taken
	// branch target if the block ends in a taken branch, otherwise the
	// pc of the first non-bulkable instruction.
	next int
	// n is the total instructions retired by the block.
	n int64
	// alu, mem, and br count retired instructions per cost class.
	alu, mem, br int64
	// misp counts statically mispredicted branches in the block.
	misp int64
	// footprint is the block's fetched lines, one mask per page in
	// address order; bulk application charges any still-cold ones their
	// first-touch penalties via cpu.Core.FetchMark.
	footprint []cpu.PageLines
	// lastAddr is the address of the block's final instruction — the
	// attribution address a stepwise pass would leave behind.
	lastAddr uint64
}

// program is one compiled program: per-pc block table (nil where
// execution must step).
type program struct {
	blocks []*block
}

// blockAt returns the block starting at pc, or nil.
func (cp *program) blockAt(pc int) *block {
	if pc < 0 || pc >= len(cp.blocks) {
		return nil
	}
	return cp.blocks[pc]
}

// compile lowers p into its basic blocks. Block leaders are the entry
// point, taken-branch targets, and the resume points after every
// stepped instruction; a block extends from its leader over bulkable
// instructions and ends at a taken branch (continuing at the target) or
// just before the first instruction that must be stepped.
func compile(p *isa.Program) *program {
	code := p.Code
	leaders := make(map[int]bool, 8)
	leaders[0] = true
	for pc, in := range code {
		switch in.Op {
		case isa.OpBranch:
			if in.B != 0 {
				leaders[int(in.A)] = true
			}
		case isa.OpLoop:
			leaders[pc+1+int(in.B)] = true
			// The body itself is executed by the loop fast-forward, not
			// by block dispatch, so body pcs need no blocks.
		case isa.OpHalt, isa.OpSysRet, isa.OpIRet:
			// Frame ends; nothing follows.
		default:
			if !cpu.Bulkable(in.Op) {
				leaders[pc+1] = true
			}
		}
	}

	cp := &program{blocks: make([]*block, len(code))}
	for leader := range leaders {
		if leader < 0 || leader >= len(code) || !cpu.Bulkable(code[leader].Op) {
			continue
		}
		cp.blocks[leader] = lowerBlock(p, leader)
	}
	return cp
}

// lowerBlock summarizes the block starting at leader.
func lowerBlock(p *isa.Program, leader int) *block {
	code := p.Code
	b := &block{}
	pc := leader
	for pc < len(code) {
		in := code[pc]
		if !cpu.Bulkable(in.Op) {
			break
		}
		addr := p.Addr(pc)
		b.lastAddr = addr
		// Addresses ascend within a block, so a page's lines are
		// contiguous and extend the last footprint entry.
		f := cpu.FetchAt(addr)
		if n := len(b.footprint); n > 0 && b.footprint[n-1].Page == f.Page {
			b.footprint[n-1].Lines |= f.Lines
		} else {
			b.footprint = append(b.footprint, f)
		}
		b.n++
		switch in.Op {
		case isa.OpALU, isa.OpNop:
			b.alu++
		case isa.OpLoad, isa.OpStore:
			b.mem++
		case isa.OpBranch:
			b.br++
			// Static not-taken prediction for forward, taken for
			// backward — the same rule cpu.Core.execBranch applies.
			backward := in.A <= int64(pc)
			taken := in.B != 0
			if taken != backward {
				b.misp++
			}
			if taken {
				b.next = int(in.A)
				return b
			}
		}
		pc++
	}
	b.next = pc
	return b
}

// cycles returns the block's cycle cost at the core's current clock
// frequency. Every term is a product of an integer count and a cost on
// the exact-addition grid (cpu.CycleGrain), so the sum is bit-identical
// to the serial per-instruction accumulation it replaces.
func (b *block) cycles(c *cpu.Core) float64 {
	cyc := float64(b.alu) * c.ClassCost(cpu.ClassALU)
	cyc += float64(b.mem) * c.ClassCost(cpu.ClassMem)
	cyc += float64(b.br) * c.ClassCost(cpu.ClassBranch)
	cyc += float64(b.misp) * c.Model.MispredictPenalty
	return cyc
}

// hashProgram returns a word-wise FNV-1a content hash of a program:
// base address plus every instruction's fields. The name is
// deliberately excluded — identical code at the same address compiles
// identically whatever it is called. Mixing whole words is weaker than
// byte-wise FNV but an order of magnitude cheaper, and collisions are
// harmless: cache hits verify full code equality (sameCode).
func hashProgram(p *isa.Program) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h = (h ^ v) * prime
	}
	mix(p.Base)
	mix(uint64(len(p.Code)))
	for _, in := range p.Code {
		mix(uint64(in.Op))
		mix(uint64(in.A))
		mix(uint64(in.B))
		mix(uint64(in.Slot))
		mix(uint64(in.Size))
	}
	return h
}

// sameCode reports whether two programs have identical base and code —
// the collision guard behind cache hits.
func sameCode(a, b *isa.Program) bool {
	if a == b {
		return true
	}
	if a.Base != b.Base || len(a.Code) != len(b.Code) {
		return false
	}
	for i := range a.Code {
		if a.Code[i] != b.Code[i] {
			return false
		}
	}
	return true
}
