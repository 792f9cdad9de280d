package core

import (
	"fmt"
	"os"
	"testing"

	"informing/internal/workload"
)

// TestPolicyGolden extends the golden grid along the replacement-policy
// dimension (DESIGN.md §17): a subset of the hot-path cells runs under
// each Policy-seam policy against a pinned table of full statistics —
// miss taxonomy included — and the final-state fingerprint.
// (Cross-policy architectural neutrality is
// TestPolicyArchitecturalNeutrality's job: the full fingerprint includes
// the MissCounter register, which is architecturally visible and
// legitimately policy-dependent.)
//
// Regenerate (only when intentionally changing simulator semantics) with:
//
//	POLICY_GOLDEN_PRINT=1 go test -run TestPolicyGolden ./internal/core -v | grep '^\t'

func policyGoldenCells() []goldenCell {
	return []goldenCell{
		{"compress", OutOfOrder, Off, func() workload.Plan { return workload.NewPlanNone() }},
		{"compress", InOrder, Off, func() workload.Plan { return workload.NewPlanNone() }},
		{"tomcatv", OutOfOrder, Off, func() workload.Plan { return workload.NewPlanNone() }},
		{"compress", OutOfOrder, TrapBranch, func() workload.Plan { return workload.NewPlanSingle(1) }},
	}
}

func TestPolicyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid is heavy")
	}
	printMode := os.Getenv("POLICY_GOLDEN_PRINT") != ""
	for _, policy := range []string{"srrip", "brrip", "trrip"} {
		policy := policy
		for _, c := range policyGoldenCells() {
			c := c
			key := policy + "/" + c.key()
			t.Run(key, func(t *testing.T) {
				run, fp := runGoldenCell(t, c, policy)
				if err := run.CheckTaxonomy(); err != nil {
					t.Error(err)
				}
				if printMode {
					fmt.Printf("\t%q: {%#v, %#x},\n", key, run, fp)
					return
				}
				want, ok := policyGolden[key]
				if !ok {
					t.Fatalf("no golden entry for %s (regenerate with POLICY_GOLDEN_PRINT=1)", key)
				}
				if run != want.run {
					t.Errorf("stats.Run diverged from pinned reference:\n got: %+v\nwant: %+v", run, want.run)
				}
				if fp != want.fingerprint {
					t.Errorf("final architectural state diverged: fingerprint %#x, want %#x", fp, want.fingerprint)
				}
			})
		}
	}
}

// TestPolicyArchitecturalNeutrality pins the sense in which replacement
// policy is timing-only: across every policy, a run computes the same
// values — same final PC, instruction count, register files and data
// memory image. The one deliberate exception is the MissCounter register
// (the §1 strawman counter), which is architecturally visible and counts
// L1 misses, so it *must* vary with the policy; the test asserts it
// actually does on at least one non-LRU policy, or the cell would not be
// exercising replacement at all.
func TestPolicyArchitecturalNeutrality(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid is heavy")
	}
	cell := goldenCell{"compress", OutOfOrder, Off, func() workload.Plan { return workload.NewPlanNone() }}
	bm, _ := workload.ByName(cell.bench)
	type arch struct {
		pc, seq, memFP uint64
		g              [32]uint64
		fr             [32]float64
		counter        uint64
	}
	var base arch
	varied := false
	for i, policy := range []string{"", "srrip", "brrip", "trrip"} {
		prog, err := workload.Build(bm, cell.plan(), 1)
		if err != nil {
			t.Fatal(err)
		}
		_, m, err := R10000(cell.scheme).WithPolicy(policy).WithMaxInsts(100_000_000).RunDetailed(prog)
		if err != nil {
			t.Fatal(err)
		}
		got := arch{pc: m.PC, seq: m.Seq, memFP: m.Mem.Fingerprint(), g: m.G, fr: m.FR, counter: m.MissCounter}
		if i == 0 {
			base = got
			continue
		}
		if got.pc != base.pc || got.seq != base.seq || got.memFP != base.memFP || got.g != base.g || got.fr != base.fr {
			t.Errorf("policy %q changed computed state: PC=%#x Seq=%d memFP=%#x, LRU PC=%#x Seq=%d memFP=%#x",
				policy, got.pc, got.seq, got.memFP, base.pc, base.seq, base.memFP)
		}
		if got.counter != base.counter {
			varied = true
		}
	}
	if !varied {
		t.Error("MissCounter identical under every policy; the cell does not exercise replacement")
	}
}
