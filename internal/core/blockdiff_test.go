package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"informing/internal/asm"
	"informing/internal/interp"
	"informing/internal/isa"
	"informing/internal/mem"
)

// Cross-engine differential (DESIGN.md §14). A timing core drives the
// functional machine one instruction at a time from its fetch loop, so
// its final architectural state must be exactly what the plain
// functional interpreter reaches on the same program over the same cache
// geometry: the informing decisions (trap or not, BMISS taken or not)
// then coincide reference for reference. Seeded random programs cover
// shapes the curated workloads do not — odd-length loop bodies, forward
// branches, informing redirects, back-to-back terminators, serializing
// counter reads.

// fuzzProgram builds a seeded random terminating program: a bounded
// counting loop whose body mixes ALU ops, plain and informing memory
// references, forward conditional branches, BMISS probes and counter
// reads, plus a miss handler armed for the trap schemes.
func fuzzProgram(seed int64) *isa.Program {
	r := rand.New(rand.NewSource(seed))
	b := asm.NewBuilder()
	buf := b.Alloc("buf", 1<<14)

	b.MtmharLabel("handler") // armed; only ModeTrap acts on it
	for i := 1; i <= 8; i++ {
		b.LoadImm(isa.R(i), int64(r.Uint32()>>8)+1)
	}
	b.LoadImm(isa.R(10), int64(30+r.Intn(90))) // loop counter
	b.LoadImm(isa.R(11), int64(buf))

	alu := []isa.Op{isa.Add, isa.Sub, isa.Mul, isa.Div, isa.Rem, isa.And,
		isa.Or, isa.Xor, isa.Sll, isa.Srl, isa.Slt, isa.Sltu}
	reg := func() isa.Reg { return isa.R(1 + r.Intn(8)) }
	off := func() int64 { return int64(r.Intn(1<<13) &^ 7) }

	b.Label("loop")
	for j, body := 0, 8+r.Intn(24); j < body; j++ {
		switch r.Intn(12) {
		case 0, 1, 2, 3:
			b.Emit(isa.Inst{Op: alu[r.Intn(len(alu))], Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 4, 5:
			b.Ld(reg(), isa.R(11), off(), r.Intn(2) == 0)
		case 6:
			b.St(reg(), isa.R(11), off(), r.Intn(2) == 0)
		case 7:
			b.Fld(isa.R(1+r.Intn(8)), isa.R(11), off(), false)
		case 8:
			b.Prefetch(isa.R(11), off())
		case 9: // forward conditional branch over a short run
			skip := b.Unique("skip")
			b.Blt(reg(), reg(), skip)
			for k, n := 0, 1+r.Intn(3); k < n; k++ {
				b.Emit(isa.Inst{Op: alu[r.Intn(len(alu))], Rd: reg(), Rs1: reg(), Rs2: reg()})
			}
			b.Label(skip)
		case 10: // BMISS probe of the preceding reference
			bm := b.Unique("bm")
			b.Ld(reg(), isa.R(11), off(), true)
			b.Bmiss(isa.R(15), bm)
			b.Add(isa.R(16), isa.R(16), isa.R(1))
			b.Label(bm)
		case 11: // serializing miss-counter read
			b.Mfcnt(isa.R(17))
		}
	}
	b.Addi(isa.R(10), isa.R(10), -1)
	b.Bne(isa.R(10), isa.R0, "loop")
	b.Halt()

	b.Label("handler")
	b.Add(isa.R(20), isa.R(20), isa.R(2))
	b.Xor(isa.R(21), isa.R(21), isa.R(20))
	b.Rfmh()
	return b.MustFinish()
}

// TestBlockKernelDifferential (named for the block-compiled front end it
// once compared against): for every machine model × informing scheme ×
// seed, the timing core's final architectural fingerprint and dynamic
// instruction count must equal the functional interpreter's over a fresh
// hierarchy of the same geometry, and a repeated run must reproduce the
// full stats.Run.
func TestBlockKernelDifferential(t *testing.T) {
	mkCfg := []func(Scheme) Config{R10000, Alpha21164}
	schemes := []Scheme{Off, CondCode, TrapBranch, TrapException}
	for _, mk := range mkCfg {
		for _, scheme := range schemes {
			for seed := int64(1); seed <= 6; seed++ {
				cfg := mk(scheme)
				name := fmt.Sprintf("%s/%s/seed%d", cfg.Machine, scheme, seed)
				t.Run(name, func(t *testing.T) {
					prog := fuzzProgram(seed)
					cfg := mk(scheme).WithMaxInsts(5_000_000)
					run, m, err := cfg.RunDetailed(prog)
					if err != nil {
						t.Fatalf("timing run: %v", err)
					}
					again, _, err := cfg.RunDetailed(prog)
					if err != nil {
						t.Fatalf("repeated timing run: %v", err)
					}
					if !reflect.DeepEqual(run, again) {
						t.Errorf("stats.Run not reproducible:\n first: %+v\nsecond: %+v", run, again)
					}

					hier, err := mem.NewHierarchy(cfg.HierConfig())
					if err != nil {
						t.Fatal(err)
					}
					ref := interp.New(prog, scheme.Mode(), hier.ProbeData)
					ref.TrapThreshold = m.TrapThreshold
					if err := ref.Run(5_000_000); err != nil {
						t.Fatalf("functional run: %v", err)
					}
					if got, want := machineFingerprint(m), machineFingerprint(ref); got != want {
						t.Errorf("architectural fingerprint diverged: timing %#x vs functional %#x", got, want)
					}
					if m.Seq != ref.Seq || run.DynInsts != ref.Seq || run.Instrs != ref.Seq {
						t.Errorf("dynamic instruction count diverged: machine %d, run %d executed / %d graduated, functional %d",
							m.Seq, run.DynInsts, run.Instrs, ref.Seq)
					}
				})
			}
		}
	}
}
