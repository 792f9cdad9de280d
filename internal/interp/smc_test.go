package interp

import (
	"errors"
	"fmt"
	"testing"

	"informing/internal/asm"
	"informing/internal/isa"
)

// Self-modifying-code seam (DESIGN.md §14). The predecode table is built
// once from the text segment, so a store that lands in text would
// silently execute stale predecode. The machine instead rejects
// text-segment stores with the typed ErrTextWrite, before the store takes
// any effect.

// smcProgram stores R2 to [R1+off] where R1 = DefaultTextBase, after nPad
// padding adds; returns the program and the dynamic index of the store.
func smcProgram(nPad int, off int64) (*isa.Program, uint64) {
	b := asm.NewBuilder()
	b.LoadImm(isa.R(1), int64(isa.DefaultTextBase))
	b.LoadImm(isa.R(2), 0x7777)
	for i := 0; i < nPad; i++ {
		b.Add(isa.R(3), isa.R(1), isa.R(2))
	}
	b.St(isa.R(2), isa.R(1), off, false)
	b.Halt()
	return b.MustFinish(), uint64(2 + nPad)
}

func TestTextWriteRejected(t *testing.T) {
	for _, off := range []int64{0, 8} { // text[0] and a mid-text word
		t.Run(fmt.Sprintf("offset%d", off), func(t *testing.T) {
			prog, storeAt := smcProgram(3, off)
			m := New(prog, ModeOff, nil)
			var rec Rec
			var err error
			for !m.Halted {
				if err = m.StepInto(&rec); err != nil {
					break
				}
			}
			if !errors.Is(err, ErrTextWrite) {
				t.Fatalf("step error = %v, want ErrTextWrite", err)
			}
			// Seq counts the faulting store as fetched (incremented
			// before the semantic switch, as for any step error), so it
			// reads storeAt+1.
			if m.Seq != storeAt+1 {
				t.Fatalf("error after %d instructions, want %d (instructions before the store must execute)", m.Seq, storeAt+1)
			}
			if m.Halted {
				t.Fatal("machine halted despite the faulting store")
			}
		})
	}
}

// The guard is writes-only and exact: loads may read text addresses, and
// a store one byte past the segment's end is ordinary data.
func TestTextSegmentBoundary(t *testing.T) {
	run := func(p *isa.Program) error {
		m := New(p, ModeOff, nil)
		return m.Run(1000)
	}

	b := asm.NewBuilder()
	b.LoadImm(isa.R(1), int64(isa.DefaultTextBase))
	b.Ld(isa.R(2), isa.R(1), 0, false)
	b.Halt()
	if err := run(b.MustFinish()); err != nil {
		t.Fatalf("load from text rejected: %v", err)
	}

	// First byte past the last instruction: allowed.
	b = asm.NewBuilder()
	b.LoadImm(isa.R(1), int64(isa.DefaultTextBase))
	b.St(isa.R(1), isa.R(1), 3*isa.InstBytes, false) // program is 3 insts long
	b.Halt()
	if err := run(b.MustFinish()); err != nil {
		t.Fatalf("store past text end rejected: %v", err)
	}

	// Below the text base: allowed (the unsigned subtraction must not
	// wrap into the guard).
	b = asm.NewBuilder()
	b.LoadImm(isa.R(1), int64(isa.DefaultTextBase)-8)
	b.St(isa.R(1), isa.R(1), 0, false)
	b.Halt()
	if err := run(b.MustFinish()); err != nil {
		t.Fatalf("store below text base rejected: %v", err)
	}

	// Last instruction's own slot (the Halt at index 3): rejected.
	prog, _ := smcProgram(0, 3*isa.InstBytes)
	m := New(prog, ModeOff, nil)
	if err := m.Run(1000); !errors.Is(err, ErrTextWrite) {
		t.Fatalf("store to last text word = %v, want ErrTextWrite", err)
	}
}
