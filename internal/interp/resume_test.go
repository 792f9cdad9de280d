package interp

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"informing/internal/asm"
	"informing/internal/govern"
	"informing/internal/isa"
)

// Budget-slice differential: a machine driven through governed runs of a
// few instructions at a time — each stopped by its budget, its snapshot
// checked, then resumed — must produce the byte-identical Rec sequence
// and final architectural state a plain StepInto loop produces, for
// every informing mode and any slice length. Budget aborts stop exactly
// at the budget, so nothing executes that the snapshot does not report.

// diffProgram is a seeded random terminating program; informing loads and
// a trap handler give ModeTrap runs real redirects.
func diffProgram(seed int64) *isa.Program {
	r := rand.New(rand.NewSource(seed))
	b := asm.NewBuilder()
	buf := b.Alloc("buf", 1<<12)
	b.MtmharLabel("handler")
	for i := 1; i <= 6; i++ {
		b.LoadImm(isa.R(i), int64(r.Uint32()>>10)+1)
	}
	b.LoadImm(isa.R(10), int64(20+r.Intn(40)))
	b.LoadImm(isa.R(11), int64(buf))
	alu := []isa.Op{isa.Add, isa.Sub, isa.Mul, isa.Xor, isa.Srl, isa.Slt}
	reg := func() isa.Reg { return isa.R(1 + r.Intn(6)) }
	b.Label("loop")
	for j, n := 0, 6+r.Intn(14); j < n; j++ {
		switch r.Intn(8) {
		case 0, 1, 2:
			b.Emit(isa.Inst{Op: alu[r.Intn(len(alu))], Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 3, 4:
			b.Ld(reg(), isa.R(11), int64(r.Intn(1<<11)&^7), r.Intn(2) == 0)
		case 5:
			b.St(reg(), isa.R(11), int64(r.Intn(1<<11)&^7), r.Intn(2) == 0)
		case 6:
			skip := b.Unique("skip")
			b.Bge(reg(), reg(), skip)
			b.Add(isa.R(7), isa.R(7), isa.R(1))
			b.Label(skip)
		case 7:
			bm := b.Unique("bm")
			b.Ld(reg(), isa.R(11), int64(r.Intn(1<<11)&^7), true)
			b.Bmiss(isa.R(15), bm)
			b.Add(isa.R(16), isa.R(16), isa.R(2))
			b.Label(bm)
		}
	}
	b.Addi(isa.R(10), isa.R(10), -1)
	b.Bne(isa.R(10), isa.R0, "loop")
	b.Halt()
	b.Label("handler")
	b.Add(isa.R(20), isa.R(20), isa.R(3))
	b.Rfmh()
	return b.MustFinish()
}

// fakeProbe returns a deterministic stateful probe: every 5th reference
// misses to L2, every 17th to memory. Each machine gets its own instance;
// since both execute the same reference stream, the probes agree.
func fakeProbe() Probe {
	n := 0
	return func(addr uint64, write bool) int {
		n++
		switch {
		case n%17 == 0:
			return LevelMem
		case n%5 == 0:
			return LevelL2
		default:
			return LevelL1
		}
	}
}

// TestStepBlockIntoMatchesStepInto (named for the block stepper it once
// compared against) alternates budget-limited Run slices of bs
// instructions with single Step calls and checks every stop against the
// reference StepInto stream.
func TestStepBlockIntoMatchesStepInto(t *testing.T) {
	modes := []Mode{ModeOff, ModeCondCode, ModeTrap}
	bufSizes := []int{1, 3, 7, 64}
	for _, mode := range modes {
		for seed := int64(1); seed <= 8; seed++ {
			prog := diffProgram(seed)

			// Reference stream: a plain StepInto loop.
			ref := New(prog, mode, fakeProbe())
			var want []Rec
			for !ref.Halted {
				var rec Rec
				if err := ref.StepInto(&rec); err != nil {
					t.Fatalf("mode %v seed %d: StepInto: %v", mode, seed, err)
				}
				want = append(want, rec)
				if len(want) > 2_000_000 {
					t.Fatalf("mode %v seed %d: reference run not terminating", mode, seed)
				}
			}

			for _, bs := range bufSizes {
				t.Run(fmt.Sprintf("mode%d/seed%d/buf%d", mode, seed, bs), func(t *testing.T) {
					m := New(prog, mode, fakeProbe())
					var slices int
					for !m.Halted {
						limit := m.Seq + uint64(bs)
						err := m.Run(limit)
						if m.Halted {
							if err != nil {
								t.Fatalf("run ending in Halt returned %v", err)
							}
							break
						}
						if !errors.Is(err, govern.ErrBudget) || !errors.Is(err, ErrLimit) {
							t.Fatalf("slice to %d: err = %v, want a budget abort", limit, err)
						}
						if m.Seq != limit || m.Seq >= uint64(len(want)) {
							t.Fatalf("slice stopped at Seq %d, want %d (reference has %d records)", m.Seq, limit, len(want))
						}
						snap, ok := govern.SnapshotIn(err)
						if !ok {
							t.Fatal("budget abort carries no snapshot")
						}
						if snap.Seq != m.Seq || snap.PC != m.PC || snap.MHAR != m.MHAR ||
							snap.MHRR != m.MHRR || snap.InHandler != m.InHandler {
							t.Fatalf("snapshot %+v does not describe the machine (Seq %d, PC %#x)", snap, m.Seq, m.PC)
						}
						if m.PC != want[m.Seq].PC {
							t.Fatalf("slice stopped at PC %#x, reference record %d is at %#x", m.PC, m.Seq, want[m.Seq].PC)
						}
						rec, err := m.Step()
						if err != nil {
							t.Fatalf("Step after resume: %v", err)
						}
						if rec != want[limit] {
							t.Fatalf("record %d diverged:\n resumed: %+v\n     ref: %+v", limit, rec, want[limit])
						}
						slices++
					}
					if m.Seq != uint64(len(want)) {
						t.Fatalf("sliced run executed %d instructions, reference %d", m.Seq, len(want))
					}
					if m.PC != ref.PC || m.MHAR != ref.MHAR ||
						m.MHRR != ref.MHRR || m.MissCounter != ref.MissCounter ||
						m.Traps != ref.Traps || m.Mem.Fingerprint() != ref.Mem.Fingerprint() {
						t.Fatal("final architectural state diverged")
					}
					if slices == 0 {
						t.Fatal("no slice stopped on its budget — the check is vacuous")
					}
				})
			}
		}
	}
}
