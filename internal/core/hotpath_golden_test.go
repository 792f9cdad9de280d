package core

import (
	"fmt"
	"math"
	"os"
	"testing"

	"informing/internal/interp"
	"informing/internal/stats"
	"informing/internal/workload"
)

// The hot-path optimisation contract: way/line memoization in mem, the
// MRU-page memo in isa.DataMem and the predecoded dispatch in interp must
// leave every measured statistic and every bit of final architectural
// state unchanged. This file pins stats.Run and a fingerprint of the final
// machine state for a grid of workload × machine × plan cells, captured
// from the pre-optimisation reference implementation (commit e566950).
//
// Regenerate the table (only when intentionally changing simulator
// semantics) with:
//
//	HOTPATH_GOLDEN_PRINT=1 go test -run TestHotpathGolden ./internal/core | grep '^\t'

type goldenCell struct {
	bench   string
	machine Machine
	scheme  Scheme
	plan    func() workload.Plan
}

func goldenCells() []goldenCell {
	var cells []goldenCell
	for _, bench := range []string{"compress", "espresso", "tomcatv"} {
		for _, m := range []Machine{OutOfOrder, InOrder} {
			cells = append(cells,
				goldenCell{bench, m, Off, func() workload.Plan { return workload.NewPlanNone() }},
				goldenCell{bench, m, TrapBranch, func() workload.Plan { return workload.NewPlanSingle(1) }},
				goldenCell{bench, m, CondCode, func() workload.Plan { return workload.NewPlanCondCode(1) }},
			)
		}
	}
	return cells
}

func (c goldenCell) key() string {
	return fmt.Sprintf("%s/%s/%s/%s", c.bench, c.machine, c.scheme, c.plan().Name())
}

// machineFingerprint hashes the complete final architectural state:
// control registers, both register files, informing state and the data
// memory image.
func machineFingerprint(m *interp.Machine) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(m.PC)
	mix(m.Seq)
	mix(m.MHAR)
	mix(m.MHRR)
	mix(m.MissCounter)
	mix(m.Traps)
	mix(m.BmissTaken)
	var flags uint64
	if m.CCMiss {
		flags |= 1
	}
	if m.InHandler {
		flags |= 2
	}
	mix(flags)
	for _, g := range m.G {
		mix(g)
	}
	for _, f := range m.FR {
		mix(math.Float64bits(f))
	}
	mix(m.Mem.Fingerprint())
	return h
}

// runGoldenCell runs a golden cell under a named replacement policy
// ("" = the default true-LRU path; see TestPolicyGolden).
func runGoldenCell(t *testing.T, c goldenCell, policy string) (stats.Run, uint64) {
	t.Helper()
	bm, ok := workload.ByName(c.bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", c.bench)
	}
	prog, err := workload.Build(bm, c.plan(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	if c.machine == InOrder {
		cfg = Alpha21164(c.scheme)
	} else {
		cfg = R10000(c.scheme)
	}
	run, m, err := cfg.WithPolicy(policy).WithMaxInsts(100_000_000).RunDetailed(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Check(); err != nil {
		t.Fatal(err)
	}
	return run, machineFingerprint(m)
}

// TestHotpathGolden replays every cell and demands byte-identical
// statistics and architectural state versus the recorded reference.
func TestHotpathGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid is heavy")
	}
	printMode := os.Getenv("HOTPATH_GOLDEN_PRINT") != ""
	for _, c := range goldenCells() {
		c := c
		t.Run(c.key(), func(t *testing.T) {
			run, fp := runGoldenCell(t, c, "")
			// The taxonomy conservation invariant holds on every golden
			// cell: the per-level classes sum exactly to the per-level
			// miss counters.
			if err := run.CheckTaxonomy(); err != nil {
				t.Error(err)
			}
			// The legacy table predates the miss taxonomy (its entries
			// carry zero classes); compare against it with the taxonomy
			// masked so the pre-PR pin stays untouched, and pin the
			// taxonomy itself in hotpathTaxGolden.
			legacy := run
			legacy.L1Tax, legacy.L2Tax = stats.MissClasses{}, stats.MissClasses{}
			if printMode {
				fmt.Printf("\t%q: {%#v, %#x},\n", c.key(), legacy, fp)
				fmt.Printf("\tTAX %q: {%#v, %#v},\n", c.key(), run.L1Tax, run.L2Tax)
				return
			}
			want, ok := hotpathGolden[c.key()]
			if !ok {
				t.Fatalf("no golden entry for %s (regenerate with HOTPATH_GOLDEN_PRINT=1)", c.key())
			}
			if legacy != want.run {
				t.Errorf("stats.Run diverged from pre-optimization reference:\n got: %+v\nwant: %+v", legacy, want.run)
			}
			if fp != want.fingerprint {
				t.Errorf("final architectural state diverged: fingerprint %#x, want %#x", fp, want.fingerprint)
			}
			wantTax, ok := hotpathTaxGolden[c.key()]
			if !ok {
				t.Fatalf("no taxonomy golden entry for %s (regenerate with HOTPATH_GOLDEN_PRINT=1)", c.key())
			}
			if run.L1Tax != wantTax.l1 || run.L2Tax != wantTax.l2 {
				t.Errorf("miss taxonomy diverged:\n got: L1{%v} L2{%v}\nwant: L1{%v} L2{%v}",
					run.L1Tax, run.L2Tax, wantTax.l1, wantTax.l2)
			}
		})
	}
}

type goldenEntry struct {
	run         stats.Run
	fingerprint uint64
}

// taxEntry pins the per-level miss taxonomy of a golden cell (the legacy
// goldenEntry table predates the taxonomy and is deliberately left
// untouched — matching it under the default policy is the point).
type taxEntry struct {
	l1, l2 stats.MissClasses
}
