package isa

import (
	"errors"
	"fmt"
)

// Program is a flat instruction sequence loaded at a base byte address.
// Instruction i occupies bytes [Addr(i), Addr(i)+Size). The load base is
// significant: the paper demonstrates (Figures 11-12) that code placement
// alone changes measured cycle counts, so placement is part of the model.
//
// A Program is immutable once built: Builder.Build lays out every
// instruction address, so programs are safe to share across goroutines.
// Addr and ByteSize need that layout; a Program assembled as a literal
// has none and suits only callers that never ask for addresses.
type Program struct {
	// Name identifies the program in diagnostics ("loop-bench", "sys_read"...).
	Name string
	// Base is the load address of the first instruction.
	Base uint64
	// Code is the instruction sequence.
	Code []Instr

	addrs []uint64 // instruction addresses, laid out by Build
}

// ErrNoHalt is reported by Validate for programs that can run off the end.
var ErrNoHalt = errors.New("isa: program does not end in halt, sysret, or iret")

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Code) }

// Addr returns the byte address of instruction i.
func (p *Program) Addr(i int) uint64 { return p.addrs[i] }

// ByteSize returns the total encoded size of the program in bytes.
func (p *Program) ByteSize() uint64 {
	if len(p.Code) == 0 {
		return 0
	}
	last := len(p.Code) - 1
	return p.addrs[last] + uint64(p.Code[last].Size) - p.Base
}

// Validate checks structural well-formedness: branch targets in range,
// loop bodies in range and non-overlapping with program end, terminating
// instruction present, and kernel-only instructions flagged when
// wantUser is true (user-mode programs must not contain WRMSR/RDMSR).
func (p *Program) Validate(wantUser bool) error {
	n := len(p.Code)
	if n == 0 {
		return errors.New("isa: empty program")
	}
	switch p.Code[n-1].Op {
	case OpHalt, OpSysRet, OpIRet:
	default:
		return fmt.Errorf("%w (program %q ends in %s)", ErrNoHalt, p.Name, p.Code[n-1].Op)
	}
	for i, in := range p.Code {
		switch in.Op {
		case OpBranch:
			if in.A < 0 || in.A >= int64(n) {
				return fmt.Errorf("isa: %q instr %d: branch target %d out of range [0,%d)", p.Name, i, in.A, n)
			}
		case OpLoop:
			if in.A < 0 {
				return fmt.Errorf("isa: %q instr %d: negative loop count %d", p.Name, i, in.A)
			}
			if in.B <= 0 || i+1+int(in.B) > n {
				return fmt.Errorf("isa: %q instr %d: loop body length %d out of range", p.Name, i, in.B)
			}
		case OpWRMSR, OpRDMSR:
			if wantUser {
				return fmt.Errorf("isa: %q instr %d: %s requires kernel mode", p.Name, i, in.Op)
			}
		case OpVarWork:
			if in.A < 0 {
				return fmt.Errorf("isa: %q instr %d: negative varwork max %d", p.Name, i, in.A)
			}
		}
	}
	return nil
}

// StaticRetired returns the exact retired-instruction count of one
// execution of the program assuming all OpVarWork sites contribute their
// baseline (zero extra) and loops run their full trip counts. This is the
// analytical ground-truth model used for the micro-benchmarks, where the
// paper's loop model ie = 1 + 3*MAX must hold.
func (p *Program) StaticRetired() int64 {
	return staticRetired(p.Code)
}

func staticRetired(code []Instr) int64 {
	var total int64
	for i := 0; i < len(code); i++ {
		in := code[i]
		if in.Op == OpLoop {
			body := code[i+1 : i+1+int(in.B)]
			total += in.A * staticRetired(body)
			i += int(in.B)
			continue
		}
		total += int64(in.Retires())
	}
	return total
}

// Builder incrementally assembles a Program. Its methods return the
// builder for chaining; Emit appends raw instructions.
type Builder struct {
	p Program
}

// NewBuilder returns a builder for a program with the given name and base.
func NewBuilder(name string, base uint64) *Builder {
	return &Builder{p: Program{Name: name, Base: base}}
}

// Emit appends instructions.
func (b *Builder) Emit(ins ...Instr) *Builder {
	b.p.Code = append(b.p.Code, ins...)
	return b
}

// ALUBlock appends n generic retiring instructions. It is the workhorse
// for modeling library and kernel path lengths.
func (b *Builder) ALUBlock(n int) *Builder {
	for i := 0; i < n; i++ {
		b.p.Code = append(b.p.Code, ALU())
	}
	return b
}

// Loop appends a loop running body() iters times. body receives a nested
// builder; its emitted instructions become the loop body.
func (b *Builder) Loop(iters int64, body func(*Builder)) *Builder {
	nested := &Builder{}
	body(nested)
	b.p.Code = append(b.p.Code, Loop(iters, len(nested.p.Code)))
	b.p.Code = append(b.p.Code, nested.p.Code...)
	return b
}

// Pos returns the index the next emitted instruction will have.
func (b *Builder) Pos() int { return len(b.p.Code) }

// Build finalizes and returns the program with its instruction
// addresses laid out.
func (b *Builder) Build() *Program {
	p := b.p
	p.addrs = make([]uint64, len(p.Code))
	a := p.Base
	for i, in := range p.Code {
		p.addrs[i] = a
		a += uint64(in.Size)
	}
	return &p
}
