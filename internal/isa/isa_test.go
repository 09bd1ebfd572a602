package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		OpALU:     "alu",
		OpRDPMC:   "rdpmc",
		OpWRMSR:   "wrmsr",
		OpSyscall: "syscall",
		OpLoop:    "loop",
		OpHalt:    "halt",
	}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	if got := Op(250).String(); !strings.Contains(got, "250") {
		t.Errorf("unknown op should render numerically, got %q", got)
	}
}

func TestMSRActionString(t *testing.T) {
	for a, want := range map[MSRAction]string{
		MSREnable:  "enable",
		MSRDisable: "disable",
		MSRReset:   "reset",
	} {
		if got := a.String(); got != want {
			t.Errorf("MSRAction(%d) = %q, want %q", a, got, want)
		}
	}
	if got := MSRAction(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown action should render numerically, got %q", got)
	}
}

func TestConstructorsDefaults(t *testing.T) {
	if in := ALU(); in.Op != OpALU || in.Slot != NoSlot || in.Size != DefaultSize {
		t.Errorf("ALU() = %+v", in)
	}
	if in := RDPMC(3, 7); in.A != 3 || in.Slot != 7 {
		t.Errorf("RDPMC(3,7) = %+v", in)
	}
	if in := Branch(12, true); in.A != 12 || in.B != 1 {
		t.Errorf("Branch = %+v", in)
	}
	if in := Branch(12, false); in.B != 0 {
		t.Errorf("Branch not-taken = %+v", in)
	}
	if in := WRMSR(MSRReset, 0b101); MSRAction(in.A) != MSRReset || uint64(in.B) != 0b101 {
		t.Errorf("WRMSR = %+v", in)
	}
	if in := Syscall(42); in.A != 42 {
		t.Errorf("Syscall = %+v", in)
	}
	if in := Loop(1000, 3); in.A != 1000 || in.B != 3 {
		t.Errorf("Loop = %+v", in)
	}
}

func TestInstrString(t *testing.T) {
	for _, tc := range []struct {
		in   Instr
		want string
	}{
		{RDPMC(2, 0), "rdpmc c2 slot=0"},
		{WRMSR(MSREnable, 1), "wrmsr enable mask=0x1"},
		{Syscall(7), "syscall 7"},
		{Loop(5, 2), "loop iters=5 body=2"},
		{Branch(3, true), "branch -> 3 (taken=true)"},
		{RDTSC(1), "rdtsc slot=1"},
		{VarWork(4, 9), "varwork max=4 stream=9"},
		{Halt(), "halt"},
	} {
		if got := tc.in.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestProgramAddresses(t *testing.T) {
	b := NewBuilder("t", 0x1000)
	b.Emit(ALU(), Branch(0, true), Halt())
	p := b.Build()
	// Build lays out every address: they are correct on first read, for
	// every instruction, with no lazy step left to race on.
	for i, want := range []uint64{0x1000, 0x1000 + DefaultSize, 0x1000 + DefaultSize + 2} {
		if got := p.Addr(i); got != want {
			t.Errorf("Addr(%d) = %#x, want %#x", i, got, want)
		}
	}
	// branch is 2 bytes, halt 1 byte
	if got := p.ByteSize(); got != DefaultSize+2+1 {
		t.Errorf("ByteSize = %d", got)
	}
	// A second program at another base lays out independently.
	if got := NewBuilder("u", 0x2000).Emit(Halt()).Build().Addr(0); got != 0x2000 {
		t.Errorf("rebased Addr(0) = %#x", got)
	}
}

func TestTableInterns(t *testing.T) {
	var tab Table[int, *Program]
	builds := 0
	build := func() *Program {
		builds++
		return NewBuilder("t", 0).Emit(Halt()).Build()
	}
	a, b := tab.Get(1, build), tab.Get(1, build)
	if a != b || builds != 1 {
		t.Fatalf("same key: shared=%v builds=%d, want one shared build", a == b, builds)
	}
	if c := tab.Get(2, build); c == a || builds != 2 {
		t.Fatalf("new key: distinct=%v builds=%d, want a second build", c != a, builds)
	}
}

func TestValidate(t *testing.T) {
	ok := NewBuilder("ok", 0).Emit(ALU(), Halt()).Build()
	if err := ok.Validate(true); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}

	if err := (&Program{Name: "empty"}).Validate(true); err == nil {
		t.Error("empty program accepted")
	}

	noHalt := NewBuilder("nohalt", 0).Emit(ALU()).Build()
	if err := noHalt.Validate(true); err == nil {
		t.Error("program without halt accepted")
	}

	badBranch := NewBuilder("bb", 0).Emit(Branch(99, true), Halt()).Build()
	if err := badBranch.Validate(true); err == nil {
		t.Error("out-of-range branch accepted")
	}

	badLoop := NewBuilder("bl", 0).Emit(Loop(3, 5), ALU(), Halt()).Build()
	if err := badLoop.Validate(true); err == nil {
		t.Error("loop body past end accepted")
	}

	negLoop := NewBuilder("nl", 0).Emit(Loop(-1, 1), ALU(), Halt()).Build()
	if err := negLoop.Validate(true); err == nil {
		t.Error("negative loop count accepted")
	}

	kernelOnly := NewBuilder("k", 0).Emit(WRMSR(MSREnable, 1), SysRet()).Build()
	if err := kernelOnly.Validate(true); err == nil {
		t.Error("WRMSR accepted in user program")
	}
	if err := kernelOnly.Validate(false); err != nil {
		t.Errorf("WRMSR rejected in kernel program: %v", err)
	}

	negVar := NewBuilder("nv", 0).Emit(Instr{Op: OpVarWork, A: -2, Slot: NoSlot, Size: 4}, Halt()).Build()
	if err := negVar.Validate(true); err == nil {
		t.Error("negative varwork accepted")
	}
}

// TestStaticRetiredLoopModel verifies the paper's analytical loop model:
// a program of [1 init instruction; loop of 3-instruction body; halt]
// retires exactly 1 + 3*MAX instructions (halt excluded from the
// benchmark region by construction in the harness; here we count it and
// subtract).
func TestStaticRetiredLoopModel(t *testing.T) {
	f := func(iters uint16) bool {
		l := int64(iters)
		b := NewBuilder("loop", 0)
		b.Emit(ALU()) // movl $0, %eax
		b.Loop(l, func(body *Builder) {
			body.Emit(ALU())           // addl
			body.Emit(ALU())           // cmpl
			body.Emit(Branch(0, true)) // jne
		})
		b.Emit(Halt())
		p := b.Build()
		return p.StaticRetired() == 1+3*l+1 // +1 for halt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStaticRetiredNested(t *testing.T) {
	b := NewBuilder("nested", 0)
	b.Loop(4, func(outer *Builder) {
		outer.Emit(ALU())
		outer.Loop(5, func(inner *Builder) {
			inner.Emit(ALU(), ALU())
		})
	})
	b.Emit(Halt())
	p := b.Build()
	// per outer iteration: 1 + 5*2 = 11; total 44 + halt
	if got := p.StaticRetired(); got != 4*11+1 {
		t.Errorf("StaticRetired = %d, want %d", got, 4*11+1)
	}
}

func TestBuilderPos(t *testing.T) {
	b := NewBuilder("pos", 0)
	if b.Pos() != 0 {
		t.Error("fresh builder Pos != 0")
	}
	b.ALUBlock(7)
	if b.Pos() != 7 {
		t.Errorf("Pos after 7 ALU = %d", b.Pos())
	}
}

func TestRetires(t *testing.T) {
	if Loop(5, 1).Retires() != 0 {
		t.Error("loop header should not retire")
	}
	if ALU().Retires() != 1 || VarWork(3, 0).Retires() != 1 {
		t.Error("baseline retirement should be 1")
	}
}
