package core

import (
	"testing"

	"informing/internal/isa"
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
// The rows live in the one golden table (golden_data_test.go).

// policyCell is a golden-grid cell run under a named replacement policy.
type policyCell struct {
	policy string
	goldenCell
}

func (c policyCell) key() string { return c.policy + "/" + c.goldenCell.key() }

func (c policyCell) setup(t *testing.T) (Config, *isa.Program) {
	cfg, prog := c.goldenCell.setup(t)
	return cfg.WithPolicy(c.policy), prog
}

func policyGoldenCells() []policyCell {
	var cells []policyCell
	for _, policy := range []string{"srrip", "brrip", "trrip"} {
		for _, c := range []goldenCell{
			{"compress", OutOfOrder, Off, func() workload.Plan { return workload.NewPlanNone() }},
			{"compress", InOrder, Off, func() workload.Plan { return workload.NewPlanNone() }},
			{"tomcatv", OutOfOrder, Off, func() workload.Plan { return workload.NewPlanNone() }},
			{"compress", OutOfOrder, TrapBranch, func() workload.Plan { return workload.NewPlanSingle(1) }},
		} {
			cells = append(cells, policyCell{policy, c})
		}
	}
	return cells
}

func TestPolicyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid is heavy")
	}
	for _, c := range policyGoldenCells() {
		c := c
		t.Run(c.key(), func(t *testing.T) {
			run, fp := runCell(t, c, nil)
			checkRow(t, c.key(), goldenRow{run: run, fingerprint: fp})
		})
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
	type arch struct {
		pc, seq, memFP uint64
		g              [32]uint64
		fr             [32]float64
		counter        uint64
	}
	var base arch
	varied := false
	for i, policy := range []string{"", "srrip", "brrip", "trrip"} {
		cfg, prog := policyCell{policy, cell}.setup(t)
		_, m, err := cfg.RunDetailed(prog)
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
