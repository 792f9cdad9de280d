package core

import (
	"fmt"
	"math"
	"os"
	"testing"

	"informing/internal/interp"
	"informing/internal/isa"
	"informing/internal/stats"
	"informing/internal/workload"
)

// The hot-path optimisation contract: way/line memoization in mem, the
// MRU-page memo in isa.DataMem and the predecoded dispatch in interp must
// leave every measured statistic and every bit of final architectural
// state unchanged. TestHotpathGolden pins stats.Run and a fingerprint of
// the final machine state for a grid of workload × machine × plan cells,
// captured from the pre-optimisation reference implementation (commit
// e566950).
//
// Every golden test of this package checks its cells against the one
// table in golden_data_test.go, through runCell and checkRow. Regenerate
// the whole map body (only when intentionally changing simulator
// semantics) with:
//
//	GOLDEN_PRINT=1 go test -run 'Golden|TestObsNeverChangesStats' ./internal/core -v | awk '/^\t/'
//
// The golden-grid rows are printed by TestObsNeverChangesStats, whose
// observed run yields the whole row, stall column included;
// TestHotpathGolden then holds the plain run to the same rows.

// goldenRow is one row of the golden table.
type goldenRow struct {
	run         stats.Run
	fingerprint uint64
	stalls      string // per-opcode issue stalls; golden-grid rows only
}

// goldenPrint makes every golden test print its rows instead of checking
// them.
var goldenPrint = os.Getenv("GOLDEN_PRINT") != ""

// pinnedCell is one cell of the golden table: the key of its row, and
// the machine and program it runs.
type pinnedCell interface {
	key() string
	setup(t *testing.T) (Config, *isa.Program)
}

// runCell builds c's machine and program, passes the config through mod
// (if not nil), runs it, checks the run's counter invariants and the
// miss-taxonomy conservation (which §3.3 speculative injection
// legitimately breaks), and returns the run and the fingerprint of the
// final machine state.
func runCell(t *testing.T, c pinnedCell, mod func(Config) Config) (stats.Run, uint64) {
	t.Helper()
	cfg, prog := c.setup(t)
	if mod != nil {
		cfg = mod(cfg)
	}
	run, m, err := cfg.RunDetailed(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Check(); err != nil {
		t.Fatal(err)
	}
	if cfg.Machine == InOrder || cfg.OOO.SpecInjectEvery == 0 {
		if err := run.CheckTaxonomy(); err != nil {
			t.Error(err)
		}
	}
	return run, machineFingerprint(m)
}

// checkRow holds got, a fresh run of the cell named key, to its pinned
// row: it reports a missing row, a diverged run and a diverged
// fingerprint, and returns the row. Under GOLDEN_PRINT it prints got as
// the row instead, and returns got.
func checkRow(t *testing.T, key string, got goldenRow) goldenRow {
	t.Helper()
	if goldenPrint {
		fmt.Printf("\t%q: {%#v, %#x, %q},\n", key, got.run, got.fingerprint, got.stalls)
		return got
	}
	want, ok := golden[key]
	if !ok {
		t.Fatalf("no golden row for %s (regenerate with GOLDEN_PRINT=1)", key)
	}
	if got.run != want.run {
		t.Errorf("stats.Run diverged from the pinned row:\n got: %+v\nwant: %+v", got.run, want.run)
	}
	if got.fingerprint != want.fingerprint {
		t.Errorf("final architectural state diverged: fingerprint %#x, want %#x", got.fingerprint, want.fingerprint)
	}
	return want
}

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

func (c goldenCell) setup(t *testing.T) (Config, *isa.Program) {
	t.Helper()
	bm, ok := workload.ByName(c.bench)
	if !ok {
		t.Fatalf("unknown benchmark %s", c.bench)
	}
	prog, err := workload.Build(bm, c.plan(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := R10000(c.scheme)
	if c.machine == InOrder {
		cfg = Alpha21164(c.scheme)
	}
	return cfg.WithMaxInsts(100_000_000), prog
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

// TestHotpathGolden replays every cell and demands byte-identical
// statistics and architectural state versus the recorded reference.
func TestHotpathGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid is heavy")
	}
	if goldenPrint {
		t.Skip("TestObsNeverChangesStats prints the golden-grid rows")
	}
	for _, c := range goldenCells() {
		c := c
		t.Run(c.key(), func(t *testing.T) {
			run, fp := runCell(t, c, nil)
			checkRow(t, c.key(), goldenRow{run: run, fingerprint: fp})
		})
	}
}
