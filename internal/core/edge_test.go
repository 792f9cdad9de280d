package core

import (
	"errors"
	"testing"

	"informing/internal/asm"
	"informing/internal/interp"
	"informing/internal/isa"
)

func bothMachines(s Scheme) []Config {
	return []Config{R10000(s), Alpha21164(s)}
}

func TestHaltOnlyProgram(t *testing.T) {
	p, err := asm.Assemble("halt")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range bothMachines(Off) {
		run, err := cfg.Run(p)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Machine, err)
		}
		if run.Instrs != 1 {
			t.Errorf("%v: %d instructions", cfg.Machine, run.Instrs)
		}
		if run.Cycles < 1 {
			t.Errorf("%v: %d cycles", cfg.Machine, run.Cycles)
		}
	}
}

func TestJumpOutsideTextFailsCleanly(t *testing.T) {
	p, err := asm.Assemble("li r1, 64\njr r1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range bothMachines(Off) {
		if _, err := cfg.Run(p); err == nil {
			t.Errorf("%v: wild jump did not error", cfg.Machine)
		}
	}
}

func TestBadMHARFailsCleanly(t *testing.T) {
	// An MHAR pointing outside the text segment must surface as an error
	// when the trap fires, not hang or panic.
	p, err := asm.Assemble(`
		.data buf 64
		mtmhar r0, 64
		la r1, buf
		ld.i r2, 0(r1)
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range bothMachines(TrapBranch) {
		if _, err := cfg.Run(p); err == nil {
			t.Errorf("%v: wild MHAR did not error", cfg.Machine)
		}
	}
}

func TestInvalidProgramRejectedBeforeRun(t *testing.T) {
	p := &isa.Program{TextBase: 0x1000, Text: []isa.Inst{{Op: isa.J, Imm: 0x9999}}}
	for _, cfg := range bothMachines(Off) {
		if _, err := cfg.Run(p); err == nil {
			t.Errorf("%v: invalid program accepted", cfg.Machine)
		}
	}
}

func TestSchemeAndMachineStrings(t *testing.T) {
	if OutOfOrder.String() != "out-of-order" || InOrder.String() != "in-order" {
		t.Error("machine names wrong")
	}
	names := map[Scheme]string{
		Off: "off", CondCode: "condcode",
		TrapBranch: "trap-branch", TrapException: "trap-exception",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("scheme %d name %q, want %q", s, s.String(), want)
		}
	}
}

func TestRunFunctional(t *testing.T) {
	p, err := asm.Assemble("li r1, 7\nadd r2, r1, r1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunFunctional(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.G[2] != 14 {
		t.Errorf("r2 = %d", m.G[2])
	}
}

func TestWithMaxInstsAppliesToBoth(t *testing.T) {
	p, err := asm.Assemble("loop: j loop\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range bothMachines(Off) {
		if _, err := cfg.WithMaxInsts(500).Run(p); err == nil {
			t.Errorf("%v: limit not enforced", cfg.Machine)
		}
	}
}

// TestStoreHeavyProgram exercises the store path (probe-at-issue, write
// buffer retirement) under misses on both machines.
func TestStoreHeavyProgram(t *testing.T) {
	p, err := asm.Assemble(`
		.data buf 262144
		la r1, buf
		li r2, 8192
	loop:
		st r2, 0(r1)
		addi r1, r1, 32
		addi r2, r2, -1
		bne r2, r0, loop
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range bothMachines(Off) {
		run, err := cfg.WithMaxInsts(10_000_000).Run(p)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Machine, err)
		}
		if run.L1Misses != 8192 {
			t.Errorf("%v: store misses %d, want 8192", cfg.Machine, run.L1Misses)
		}
	}
}

// TestTextWriteSurfacesThroughCores: a store into the text segment
// surfaces interp.ErrTextWrite through both timing cores, so neither can
// execute stale predecode.
func TestTextWriteSurfacesThroughCores(t *testing.T) {
	b := asm.NewBuilder()
	b.LoadImm(isa.R(1), int64(isa.DefaultTextBase))
	b.LoadImm(isa.R(2), 0xbad)
	for i := 0; i < 5; i++ {
		b.Add(isa.R(3), isa.R(1), isa.R(2))
	}
	b.St(isa.R(2), isa.R(1), 0, false)
	b.Halt()
	prog := b.MustFinish()

	for _, cfg := range bothMachines(Off) {
		if _, err := cfg.WithMaxInsts(1000).Run(prog); !errors.Is(err, interp.ErrTextWrite) {
			t.Errorf("%v: err = %v, want interp.ErrTextWrite", cfg.Machine, err)
		}
	}
}
