package interp

import (
	"context"
	"errors"
	"testing"

	"informing/internal/asm"
	"informing/internal/govern"
	"informing/internal/isa"
)

// run assembles src, executes it functionally and returns the machine.
func run(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(p, ModeOff, nil)
	if err := m.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

func TestIntegerALUSemantics(t *testing.T) {
	m := run(t, `
		li r1, 100
		li r2, 7
		add r3, r1, r2
		sub r4, r1, r2
		mul r5, r1, r2
		div r6, r1, r2
		rem r7, r1, r2
		and r8, r1, r2
		or  r9, r1, r2
		xor r10, r1, r2
		nor r11, r1, r2
		sll r12, r1, r2
		srl r13, r1, r2
		slt r14, r2, r1
		sltu r15, r1, r2
		halt`)
	want := map[int]uint64{
		3: 107, 4: 93, 5: 700, 6: 14, 7: 2,
		8: 100 & 7, 9: 100 | 7, 10: 100 ^ 7, 11: ^uint64(100 | 7),
		12: 100 << 7, 13: 100 >> 7, 14: 1, 15: 0,
	}
	for r, v := range want {
		if m.G[r] != v {
			t.Errorf("r%d = %d, want %d", r, m.G[r], v)
		}
	}
}

func TestSignedOps(t *testing.T) {
	m := run(t, `
		li r1, -16
		li r2, 3
		div r3, r1, r2
		rem r4, r1, r2
		sra r5, r1, r2
		srl r6, r1, r2
		slt r7, r1, r2
		sltu r8, r1, r2
		slti r9, r1, -15
		srai r10, r1, 2
		halt`)
	if int64(m.G[3]) != -5 || int64(m.G[4]) != -1 {
		t.Errorf("signed div/rem: %d, %d", int64(m.G[3]), int64(m.G[4]))
	}
	if int64(m.G[5]) != -2 {
		t.Errorf("sra: %d", int64(m.G[5]))
	}
	if int64(m.G[6]) == -2 {
		t.Error("srl behaved like sra")
	}
	if m.G[7] != 1 || m.G[8] != 0 {
		t.Errorf("slt/sltu on negative: %d, %d", m.G[7], m.G[8])
	}
	if m.G[9] != 1 || int64(m.G[10]) != -4 {
		t.Errorf("slti/srai: %d, %d", m.G[9], int64(m.G[10]))
	}
}

func TestDivideByZeroDefined(t *testing.T) {
	m := run(t, `
		li r1, 42
		div r2, r1, r0
		rem r3, r1, r0
		halt`)
	if m.G[2] != 0 {
		t.Errorf("div by zero = %d, want 0", m.G[2])
	}
	if m.G[3] != 42 {
		t.Errorf("rem by zero = %d, want 42", m.G[3])
	}
}

func TestR0HardwiredZero(t *testing.T) {
	m := run(t, `
		li r1, 5
		add r0, r1, r1
		add r2, r0, r0
		halt`)
	if m.G[2] != 0 {
		t.Errorf("write to r0 stuck: r2 = %d", m.G[2])
	}
}

func TestShiftAmountMasked(t *testing.T) {
	m := run(t, `
		li r1, 1
		li r2, 65
		sll r3, r1, r2
		halt`)
	if m.G[3] != 2 {
		t.Errorf("shift by 65 = %d, want 2 (masked to 1)", m.G[3])
	}
}

func TestLui(t *testing.T) {
	m := run(t, "lui r1, 3\nhalt")
	if m.G[1] != 3<<32 {
		t.Errorf("lui = %#x", m.G[1])
	}
}

func TestFloatingPoint(t *testing.T) {
	m := run(t, `
		.float c 2.25 4.0
		la r1, c
		fld f1, 0(r1)
		fld f2, 8(r1)
		fadd f3, f1, f2
		fsub f4, f1, f2
		fmul f5, f1, f2
		fdiv f6, f2, f1
		fsqrt f7, f2
		fneg f8, f1
		fmov f9, f1
		fclt r2, f1, f2
		fceq r3, f1, f9
		li r4, 7
		fcvt f10, r4
		icvt r5, f10
		halt`)
	checks := map[int]float64{3: 6.25, 4: -1.75, 5: 9.0, 6: 4.0 / 2.25, 7: 2.0, 8: -2.25, 9: 2.25, 10: 7.0}
	for r, v := range checks {
		if m.FR[r] != v {
			t.Errorf("f%d = %g, want %g", r, m.FR[r], v)
		}
	}
	if m.G[2] != 1 || m.G[3] != 1 || m.G[5] != 7 {
		t.Errorf("fclt/fceq/icvt: %d %d %d", m.G[2], m.G[3], m.G[5])
	}
}

func TestMemoryAndControlFlow(t *testing.T) {
	m := run(t, `
		.data buf 64
		la r1, buf
		li r2, 10
		li r3, 0
	loop:
		st r3, 0(r1)
		addi r1, r1, 8
		addi r3, r3, 3
		addi r2, r2, -1
		bne r2, r0, loop
		la r1, buf
		ld r4, 72(r1)
		jal r15, fn
		j end
	fn:
		addi r5, r0, 77
		jr r15
	end:
		halt`)
	if m.G[4] != 27 {
		t.Errorf("stored sequence wrong: %d", m.G[4])
	}
	if m.G[5] != 77 {
		t.Error("call/return failed")
	}
}

func TestTrapSemantics(t *testing.T) {
	p, err := asm.Assemble(`
		j start
	handler:
		addi r20, r20, 1
		mfmhrr r21
		rfmh
	start:
		mtmhar handler
		.data buf 128
		la r1, buf
		ld.i r2, 0(r1)    ; miss -> trap
		addi r3, r0, 1    ; return lands here
		ld.i r4, 0(r1)    ; hit -> no trap
		ld r5, 64(r1)     ; miss, but not informing -> no trap
		mtmhar r0
		ld.i r6, 96(r1)   ; miss, MHAR=0 -> no trap
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	// Probe: miss on first touch of each line.
	seen := map[uint64]bool{}
	probe := func(addr uint64, write bool) int {
		line := addr &^ 31
		if seen[line] {
			return LevelL1
		}
		seen[line] = true
		return LevelMem
	}
	m := New(p, ModeTrap, probe)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.G[20] != 1 {
		t.Fatalf("handler ran %d times, want 1", m.G[20])
	}
	// The MHRR must hold the address of the instruction after the
	// trapping load.
	retPC := m.G[21]
	k, ok := p.IndexOf(retPC)
	if !ok {
		t.Fatalf("MHRR %#x not in text", retPC)
	}
	if p.Text[k].Op != isa.Addi || p.Text[k].Imm != 1 {
		t.Errorf("MHRR points at %v", p.Text[k])
	}
	if m.G[3] != 1 {
		t.Error("execution did not resume after handler")
	}
	if m.Traps != 1 {
		t.Errorf("trap count %d", m.Traps)
	}
	// The load completed before the trap: r2 holds the loaded value.
	if m.G[2] != 0 {
		t.Errorf("trapping load value %d", m.G[2])
	}
}

func TestTrapNestingSuppressed(t *testing.T) {
	// A handler whose own references miss must not re-trap (it would
	// clobber the MHRR and loop forever).
	p, err := asm.Assemble(`
		j start
	handler:
		addi r20, r20, 1
		ld.i r21, 512(r1)  ; misses, but we are in the handler
		rfmh
	start:
		mtmhar handler
		.data buf 4096
		la r1, buf
		ld.i r2, 0(r1)
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, ModeTrap, func(addr uint64, w bool) int { return LevelMem })
	if err := m.Run(10_000); err != nil {
		t.Fatalf("run (livelock?): %v", err)
	}
	if m.G[20] != 1 {
		t.Errorf("handler entries %d, want 1", m.G[20])
	}
}

func TestTrapNestingAllowedLoopsForever(t *testing.T) {
	p, err := asm.Assemble(`
		j start
	handler:
		ld.i r21, 512(r1)
		rfmh
	start:
		mtmhar handler
		.data buf 4096
		la r1, buf
		ld.i r2, 0(r1)
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, ModeTrap, func(addr uint64, w bool) int { return LevelMem })
	m.AllowNest = true
	err = m.Run(10_000)
	if !errors.Is(err, ErrLimit) {
		t.Errorf("nested traps should livelock into the step limit, got %v", err)
	}
}

func TestCondCodeAndBmiss(t *testing.T) {
	p, err := asm.Assemble(`
		.data buf 128
		la r1, buf
		ld r2, 0(r1)       ; miss -> CC set
		bmiss r15, hit1
		j next
	hit1:
		addi r20, r20, 1   ; taken path
		jr r15
	next:
		ld r3, 0(r1)       ; hit -> CC clear
		bmiss r15, hit2
		addi r21, r0, 5    ; fallthrough expected
		halt
	hit2:
		addi r22, r0, 9
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	probe := func(addr uint64, w bool) int {
		line := addr &^ 31
		if seen[line] {
			return LevelL1
		}
		seen[line] = true
		return LevelL2
	}
	m := New(p, ModeCondCode, probe)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.G[20] != 1 {
		t.Error("BMISS not taken on miss")
	}
	if m.G[21] != 5 || m.G[22] != 0 {
		t.Error("BMISS taken on hit")
	}
	if m.BmissTaken != 1 {
		t.Errorf("BmissTaken = %d", m.BmissTaken)
	}
}

func TestMtmhrrAndRfmh(t *testing.T) {
	m := run(t, `
		la r1, target      ; la resolves text labels too
		mtmhrr r1
		rfmh
		halt               ; skipped
	target:
		addi r2, r0, 31
		halt`)
	if m.G[2] != 31 {
		t.Error("mtmhrr/rfmh did not transfer control")
	}
}

func TestPrefetchNeverTraps(t *testing.T) {
	p, err := asm.Assemble(`
		j start
	handler:
		addi r20, r20, 1
		rfmh
	start:
		mtmhar handler
		.data buf 64
		la r1, buf
		prefetch 0(r1)
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, ModeTrap, func(addr uint64, w bool) int { return LevelMem })
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.G[20] != 0 {
		t.Error("prefetch triggered a trap")
	}
	if m.CCMiss {
		t.Error("prefetch set the condition code")
	}
}

func TestPCOutsideTextErrors(t *testing.T) {
	p, err := asm.Assemble("nop\nnop") // falls off the end
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, ModeOff, nil)
	err = m.Run(0)
	if !errors.Is(err, ErrPC) {
		t.Errorf("expected ErrPC, got %v", err)
	}
}

func TestRunLimit(t *testing.T) {
	p, err := asm.Assemble("loop: j loop\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, ModeOff, nil)
	if err := m.Run(100); !errors.Is(err, ErrLimit) {
		t.Errorf("expected ErrLimit, got %v", err)
	}
}

// TestRunGovernedCancelSnapshot: the governor ticks before every
// instruction, so a run canceled before it starts stops at the first
// context poll (the CheckEvery-th tick) with exactly CheckEvery-1
// instructions executed, and the snapshot reports that state.
func TestRunGovernedCancelSnapshot(t *testing.T) {
	p, err := asm.Assemble("loop: addi r1, r1, 1\nj loop\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := New(p, ModeOff, nil)
	err = m.RunGoverned(govern.New(govern.Config{Ctx: ctx, CheckEvery: 8}))
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("err = %v, want govern.ErrCanceled", err)
	}
	snap, ok := govern.SnapshotIn(err)
	if !ok {
		t.Fatal("abort error carries no snapshot")
	}
	if snap.Seq != 7 || m.Seq != 7 {
		t.Errorf("snapshot Seq %d, machine Seq %d; want 7 (one instruction per tick before the failing poll)", snap.Seq, m.Seq)
	}
	// Seven instructions alternate addi, j from the loop head: the last
	// executed is an addi, so the next PC is the jump.
	if want := p.TextBase + isa.InstBytes; snap.PC != want || m.PC != want {
		t.Errorf("snapshot PC %#x, machine PC %#x; want %#x", snap.PC, m.PC, want)
	}
}

func TestStepOnHaltedMachine(t *testing.T) {
	p, err := asm.Assemble("halt")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, ModeOff, nil)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err == nil {
		t.Error("step on halted machine succeeded")
	}
}

func TestRecFieldsForMemoryOps(t *testing.T) {
	p, err := asm.Assemble(`
		.data buf 64
		la r1, buf
		st r1, 8(r1)
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p, ModeOff, func(addr uint64, w bool) int {
		if !w {
			t.Error("store probed as read")
		}
		return LevelL2
	})
	var stRec Rec
	for !m.Halted {
		rec, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Inst.Op == isa.St {
			stRec = rec
		}
	}
	if stRec.EA != m.G[1]+8 {
		t.Errorf("EA %#x, want %#x", stRec.EA, m.G[1]+8)
	}
	if stRec.Level != LevelL2 {
		t.Errorf("level %d", stRec.Level)
	}
}

func TestFloatBitsPreservedThroughMemory(t *testing.T) {
	m := run(t, `
		.data buf 16
		la r1, buf
		li r2, 1
		fcvt f1, r2
		fdiv f2, f1, f1
		fst f2, 0(r1)
		fld f3, 0(r1)
		halt`)
	if m.FR[3] != 1.0 {
		t.Errorf("float through memory: %g", m.FR[3])
	}
}

func TestMfcntCountsMisses(t *testing.T) {
	p, err := asm.Assemble(`
		.data buf 256
		la r1, buf
		mfcnt r10
		ld r2, 0(r1)      ; miss
		ld r3, 0(r1)      ; hit
		ld r4, 64(r1)     ; miss
		mfcnt r11
		sub r12, r11, r10
		halt`)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	probe := func(addr uint64, w bool) int {
		line := addr &^ 31
		if seen[line] {
			return LevelL1
		}
		seen[line] = true
		return LevelMem
	}
	m := New(p, ModeOff, probe)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.G[12] != 2 {
		t.Errorf("counter delta %d, want 2", m.G[12])
	}
	if m.MissCounter != 2 {
		t.Errorf("miss counter %d", m.MissCounter)
	}
}
