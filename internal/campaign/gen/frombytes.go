package gen

import "repro/internal/isa"

// FuzzSyscall is the syscall number FromBytes programs invoke; harnesses
// running them must register a handler for it.
const FuzzSyscall = 7

// FromBytes decodes a byte string into a structurally valid program —
// the engine-conformance fuzz generator, promoted here so generated
// program shapes are defined exactly once. Unlike New's campaign
// programs, FromBytes output may be nondeterministic (VarWork),
// privilege-crossing (syscalls), or invalid at runtime (nested loops):
// its consumer compares two execution engines against each other, not
// against an analytic ground truth. The decoding is frozen — the engine
// fuzz corpus depends on it.
//
// The vocabulary: straight-line work, forward taken branches (backward
// taken branches could loop forever; backward prediction is still
// exercised through not-taken branches with backward targets), counted
// loops with straight bodies, the occasional invalid nested loop (both
// engines must fail identically), syscalls, VarWork, and PMU-visible
// reads.
func FromBytes(data []byte) *isa.Program {
	i := 0
	next := func() byte {
		if i >= len(data) {
			return 0
		}
		v := data[i]
		i++
		return v
	}

	var code []isa.Instr
	for op := 0; op < 48 && i < len(data); op++ {
		switch next() % 12 {
		case 0, 1:
			for n := 1 + int(next()%6); n > 0; n-- {
				code = append(code, isa.ALU())
			}
		case 2:
			code = append(code, isa.Load())
		case 3:
			code = append(code, isa.Store())
		case 4:
			// Forward taken branch over k filler instructions (dead code,
			// but still compiled — targets become block leaders).
			k := 1 + int(next()%4)
			code = append(code, isa.Branch(len(code)+1+k, true))
			for ; k > 0; k-- {
				code = append(code, isa.ALU())
			}
		case 5:
			// Not-taken branch with a backward target: statically
			// predicted taken, so it mispredicts — without looping.
			target := int(next()) % (len(code) + 1)
			code = append(code, isa.Branch(target, false))
		case 6:
			iters := int64(next()) * int64(next()) % 301
			body := 1 + int(next()%3)
			code = append(code, isa.Loop(iters, body))
			for n := body; n > 0; n-- {
				if next()%2 == 0 {
					code = append(code, isa.ALU())
				} else {
					code = append(code, isa.Load())
				}
			}
		case 7:
			code = append(code, isa.Syscall(FuzzSyscall))
		case 8:
			code = append(code, isa.VarWork(int(next()%32), int64(next())))
		case 9:
			code = append(code, isa.RDPMC(int(next()%2), int(next()%4)))
		case 10:
			code = append(code, isa.RDTSC(int(next()%4)))
		case 11:
			if next() == 255 {
				// Invalid at runtime: a loop whose body is another loop.
				// Structurally valid, so it reaches both engines, which
				// must report the identical error at the identical state.
				code = append(code, isa.Loop(3, 2), isa.Loop(2, 1), isa.ALU())
			} else {
				code = append(code, isa.Nop())
			}
		}
	}
	code = append(code, isa.Halt())
	return isa.NewBuilder("fuzz", 0x4000).Emit(code...).Build()
}
