package workload

import (
	"fmt"

	"informing/internal/asm"
	"informing/internal/isa"
)

// Class partitions the suite like the paper (five integer, nine FP).
type Class uint8

const (
	IntClass Class = iota
	FPClass
)

func (c Class) String() string {
	if c == FPClass {
		return "fp"
	}
	return "int"
}

// Benchmark is one SPEC92 stand-in.
type Benchmark struct {
	Name  string
	Class Class
	// About documents which SPEC92 behaviour the kernel imitates.
	About string
	// Gen emits the kernel (everything between prologue and Halt).
	Gen func(g *Gen)
}

// Gen is the code-generation context handed to benchmark kernels. It
// routes informing-eligible references through the active instrumentation
// plan and provides loop and pseudo-random helpers.
type Gen struct {
	B     *asm.Builder
	Plan  Plan
	Scale int64 // iteration multiplier; 1 = default experiment size

	loopDepth int
	err       error // first structural error; surfaced by Build
}

// fail records the first structural error hit while generating; Build
// returns it instead of panicking (library panic-to-error policy).
func (g *Gen) fail(err error) {
	if g.err == nil {
		g.err = err
	}
}

// loopRegs are reserved for nested counted loops.
var loopRegs = [...]isa.Reg{isa.R16, isa.R17, isa.R18, isa.R19}

// Iters scales a default iteration count by the configured Scale.
func (g *Gen) Iters(n int64) int64 {
	v := n * g.Scale
	if v < 1 {
		return 1
	}
	return v
}

// Loop emits a counted loop running body n times. Loops nest up to
// len(loopRegs) deep. The counter register counts down to zero; kernels
// that need the iteration index maintain their own induction variables.
func (g *Gen) Loop(n int64, body func()) {
	if g.loopDepth >= len(loopRegs) {
		g.fail(fmt.Errorf("workload: loop nesting exceeds %d", len(loopRegs)))
		return
	}
	r := loopRegs[g.loopDepth]
	g.loopDepth++
	top := g.B.Unique("loop")
	g.B.LoadImm(r, n)
	g.B.Label(top)
	body()
	g.B.Addi(r, r, -1)
	g.B.Bne(r, isa.R0, top)
	g.loopDepth--
}

// LCG advances r through a linear congruential sequence (in-register
// pseudo-randomness for data-dependent branches and indices); tmp is a
// scratch register.
func (g *Gen) LCG(r, tmp isa.Reg) {
	g.B.LoadImm(tmp, 1103515245)
	g.B.Mul(r, r, tmp)
	g.B.Addi(r, r, 12345)
}

// Informing-eligible references (the "potentially interesting" data
// references the paper instruments). Bookkeeping references should use
// g.B directly instead.

// wrapRef routes one reference site through the plan, handing site-aware
// plans (SitePlan) the address expression.
func (g *Gen) wrapRef(ref RefInfo, emit func(informing bool)) {
	if sp, ok := g.Plan.(SitePlan); ok {
		sp.WrapRefSite(g.B, ref, emit)
		return
	}
	g.Plan.WrapRef(g.B, emit)
}

// Ld emits an instrumented integer load.
func (g *Gen) Ld(rd, base isa.Reg, off int64) {
	g.wrapRef(RefInfo{Base: base, Off: off}, func(inf bool) { g.B.Ld(rd, base, off, inf) })
}

// St emits an instrumented integer store.
func (g *Gen) St(val, base isa.Reg, off int64) {
	g.wrapRef(RefInfo{Base: base, Off: off, Store: true}, func(inf bool) { g.B.St(val, base, off, inf) })
}

// Fld emits an instrumented floating-point load.
func (g *Gen) Fld(fd, base isa.Reg, off int64) {
	g.wrapRef(RefInfo{Base: base, Off: off}, func(inf bool) { g.B.Fld(fd, base, off, inf) })
}

// Fst emits an instrumented floating-point store.
func (g *Gen) Fst(fv, base isa.Reg, off int64) {
	g.wrapRef(RefInfo{Base: base, Off: off, Store: true}, func(inf bool) { g.B.Fst(fv, base, off, inf) })
}

// Build assembles benchmark bm under the given instrumentation plan.
func Build(bm Benchmark, plan Plan, scale int64) (*isa.Program, error) {
	if scale < 1 {
		scale = 1
	}
	b := asm.NewBuilder()
	g := &Gen{B: b, Plan: plan, Scale: scale}
	plan.Prologue(b)
	bm.Gen(g)
	if g.err != nil {
		return nil, fmt.Errorf("workload: %s/%s: %w", bm.Name, plan.Name(), g.err)
	}
	b.Halt()
	plan.Epilogue(b)
	return b.Finish()
}

// MustBuild is Build that panics on error (documented Must* helper; the
// benchmark definitions it is used with are static).
func MustBuild(bm Benchmark, plan Plan, scale int64) *isa.Program {
	p, err := Build(bm, plan, scale)
	if err != nil {
		panic(fmt.Sprintf("workload: %s/%s: %v", bm.Name, plan.Name(), err))
	}
	return p
}

// All returns the full fourteen-benchmark suite in the paper's order
// (integer first).
func All() []Benchmark {
	return []Benchmark{
		Compress(), Espresso(), Eqntott(), Sc(), Xlisp(),
		Tomcatv(), Su2cor(), Alvinn(), Mdljsp2(), Ora(),
		Ear(), Hydro2d(), Nasa7(), Swm256(),
	}
}

// Fig2Set returns the thirteen benchmarks plotted in Figure 2 (all but
// su2cor, which gets its own figure).
func Fig2Set() []Benchmark {
	var out []Benchmark
	for _, bm := range All() {
		if bm.Name != "su2cor" {
			out = append(out, bm)
		}
	}
	return out
}

// ByName looks a benchmark up by name.
func ByName(name string) (Benchmark, bool) {
	for _, bm := range All() {
		if bm.Name == name {
			return bm, true
		}
	}
	return Benchmark{}, false
}
