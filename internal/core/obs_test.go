package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"informing/internal/govern"
	"informing/internal/isa"
	"informing/internal/obs"
	"informing/internal/stats"
	"informing/internal/workload"
)

// TestObsNeverChangesStats is the observability analogue of the hot-path
// golden contract: enabling the metrics registry and sampled tracing must
// not change a single measured statistic or any bit of final architectural
// state, on any cell of the golden grid. Observation, not perturbation.
// The observed run is held to the same golden row TestHotpathGolden holds
// the plain run to, so the two agree through the table. The row also pins
// the cell's per-opcode issue-stall totals, the one counter only an
// observed run computes. Under GOLDEN_PRINT this test prints the
// golden-grid rows (see hotpath_golden_test.go).
func TestObsNeverChangesStats(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid is heavy")
	}
	for _, c := range goldenCells() {
		c := c
		t.Run(c.key(), func(t *testing.T) {
			sim := obs.NewSim()
			var offered uint64
			count := func(stats.TraceEvent) { offered++ }
			observed, fp := runCell(t, c, func(cfg Config) Config {
				return cfg.WithObs(sim).WithTrace(count).WithTraceEvery(7)
			})
			// The metrics must agree with the run they watched.
			if got := sim.Instrs.Load(); got != observed.Instrs {
				t.Errorf("sim_instrs = %d, run graduated %d", got, observed.Instrs)
			}
			if got := sim.Cycles.Load(); got != uint64(observed.Cycles) {
				t.Errorf("sim_cycles = %d, run took %d", got, observed.Cycles)
			}
			if got := sim.Traps.Load(); got != observed.Traps {
				t.Errorf("sim_traps = %d, run counted %d", got, observed.Traps)
			}
			refs := sim.Levels[1].Load() + sim.Levels[2].Load() + sim.Levels[3].Load()
			if refs != observed.MemRefs {
				t.Errorf("per-level counters total %d refs, run counted %d", refs, observed.MemRefs)
			}
			if offered != observed.Instrs/7 {
				t.Errorf("1-in-7 source sampling offered %d events for %d instrs, want %d",
					offered, observed.Instrs, observed.Instrs/7)
			}
			stalls := issueStalls(sim)
			if want := checkRow(t, c.key(), goldenRow{observed, fp, stalls}); stalls != want.stalls {
				t.Errorf("per-opcode issue stalls diverged:\n got: %s\nwant: %s", stalls, want.stalls)
			}
		})
	}
}

// issueStalls renders sim's non-zero per-opcode issue-stall totals as
// "op=n" pairs in opcode order.
func issueStalls(sim *obs.Sim) string {
	var parts []string
	for op, c := range sim.IssueStalls {
		if n := c.Load(); n != 0 {
			parts = append(parts, fmt.Sprintf("%v=%d", isa.Op(op), n))
		}
	}
	return strings.Join(parts, " ")
}

// TestTraceEmissionParity pins the unified TraceEvent construction point
// (interp.Rec.TraceEvent): with identical memory hierarchies the two
// machines execute identical dynamic instruction streams, so every
// functional field of the trace — sequence, PC, disassembly, satisfying
// level, trap flag — must match event-for-event between the out-of-order
// and in-order cores. Only the timing fields may differ. This is the
// regression test for the historical asymmetry where each core hand-built
// its events at a different pipeline stage.
func TestTraceEmissionParity(t *testing.T) {
	prog := buildResident()

	collect := func(machine Machine) []stats.TraceEvent {
		var cfg Config
		if machine == InOrder {
			cfg = Alpha21164(TrapBranch)
		} else {
			cfg = R10000(TrapBranch)
		}
		// Same hierarchy + same scheme → identical interp streams.
		cfg.OOO.Hier = R10000(TrapBranch).OOO.Hier
		cfg.IO.Hier = cfg.OOO.Hier
		var events []stats.TraceEvent
		if _, err := cfg.WithMaxInsts(10_000_000).
			WithTrace(func(ev stats.TraceEvent) { events = append(events, ev) }).
			Run(prog); err != nil {
			t.Fatalf("%v: %v", machine, err)
		}
		return events
	}

	oooEvents := collect(OutOfOrder)
	ioEvents := collect(InOrder)
	if len(oooEvents) != len(ioEvents) {
		t.Fatalf("event count diverged: ooo=%d inorder=%d", len(oooEvents), len(ioEvents))
	}
	if len(oooEvents) == 0 {
		t.Fatal("no trace events")
	}
	var traps int
	for i := range oooEvents {
		a, b := oooEvents[i], ioEvents[i]
		if a.Seq != b.Seq || a.PC != b.PC || a.Disasm != b.Disasm ||
			a.MemLevel != b.MemLevel || a.Trap != b.Trap {
			t.Fatalf("functional trace fields diverged at %d:\n ooo: %+v\n  io: %+v", i, a, b)
		}
		if a.Trap {
			traps++
		}
	}
	if traps == 0 {
		t.Error("parity run exercised no trap events")
	}
}

// TestCrossCoreCounterParity: given the same data hierarchy and
// instruction cache, the two machines see the same dynamic instruction
// stream, so every count the shared harness (internal/pipe) keeps —
// references and miss levels, I-cache misses, traps and handler
// episodes, branch lookups, the miss taxonomy — must agree between the
// out-of-order and in-order cores, with metrics on or off. Only the
// schedulers' timing may differ.
func TestCrossCoreCounterParity(t *testing.T) {
	plans := map[Scheme]func() workload.Plan{
		Off:           func() workload.Plan { return workload.NewPlanNone() },
		CondCode:      func() workload.Plan { return workload.NewPlanCondCode(1) },
		TrapBranch:    func() workload.Plan { return workload.NewPlanSingle(1) },
		TrapException: func() workload.Plan { return workload.NewPlanSingle(1) },
	}
	type counts struct {
		MemRefs, L1Misses, L2Misses, IMisses, Traps, HandlerInsts uint64
		BmissTaken, BranchLookups, DynInsts                       uint64
		L1Tax, L2Tax                                              stats.MissClasses
		SimTraps, OccCount                                        uint64
		OccSum                                                    int64
	}
	for _, bench := range []string{"compress", "espresso", "tomcatv"} {
		for _, scheme := range []Scheme{Off, CondCode, TrapBranch, TrapException} {
			t.Run(bench+"/"+scheme.String(), func(t *testing.T) {
				bm, ok := workload.ByName(bench)
				if !ok {
					t.Fatalf("unknown benchmark %s", bench)
				}
				prog, err := workload.Build(bm, plans[scheme](), 1)
				if err != nil {
					t.Fatal(err)
				}
				var got [2]counts
				for i, cfg := range bothMachines(scheme) {
					cfg.IO.Hier, cfg.IO.ICache = cfg.OOO.Hier, cfg.OOO.ICache
					sim := obs.NewSim()
					r, err := cfg.WithMaxInsts(100_000_000).WithObs(sim).Run(prog)
					if err != nil {
						t.Fatalf("%v: %v", cfg.Machine, err)
					}
					got[i] = counts{r.MemRefs, r.L1Misses, r.L2Misses, r.IMisses, r.Traps, r.HandlerInsts,
						r.BmissTaken, r.BranchLookups, r.DynInsts, r.L1Tax, r.L2Tax,
						sim.Traps.Load(), sim.HandlerOcc.Count(), sim.HandlerOcc.Sum()}
				}
				if got[0] != got[1] {
					t.Errorf("counters diverged:\n ooo: %+v\n  io: %+v", got[0], got[1])
				}
				if scheme != Off && got[0].Traps+got[0].BmissTaken == 0 {
					t.Error("cell exercised no informing events; the check is vacuous")
				}
			})
		}
	}
}

// TestTraceSamplingIsEveryNth: the source-sampled stream is exactly every
// n-th element of the full stream, on both machines — sampling selects, it
// never reorders or rewrites.
func TestTraceSamplingIsEveryNth(t *testing.T) {
	prog := buildResident()
	const every = 5
	for _, machine := range []Machine{OutOfOrder, InOrder} {
		var cfg Config
		if machine == InOrder {
			cfg = Alpha21164(TrapBranch)
		} else {
			cfg = R10000(TrapBranch)
		}
		var full []stats.TraceEvent
		if _, err := cfg.WithMaxInsts(10_000_000).
			WithTrace(func(ev stats.TraceEvent) { full = append(full, ev) }).
			Run(prog); err != nil {
			t.Fatal(err)
		}
		var sampled []stats.TraceEvent
		if _, err := cfg.WithMaxInsts(10_000_000).
			WithTrace(func(ev stats.TraceEvent) { sampled = append(sampled, ev) }).
			WithTraceEvery(every).
			Run(prog); err != nil {
			t.Fatal(err)
		}
		if want := len(full) / every; len(sampled) != want {
			t.Fatalf("%v: sampled %d events from %d, want %d", machine, len(sampled), len(full), want)
		}
		for i, ev := range sampled {
			if want := full[(i+1)*every-1]; ev != want {
				t.Fatalf("%v: sampled event %d = %+v, want full stream element %d %+v",
					machine, i, ev, (i+1)*every-1, want)
			}
		}
	}
}

// TestAbortFlushesPartialTrace is the satellite-bug regression: a run
// aborted by the governor (here: budget exhaustion) must leave a
// well-formed partial JSONL trace once the sink is closed — every buffered
// line whole, nothing torn, nothing silently dropped.
func TestAbortFlushesPartialTrace(t *testing.T) {
	prog := buildResident()
	for _, machine := range []Machine{OutOfOrder, InOrder} {
		var cfg Config
		if machine == InOrder {
			cfg = Alpha21164(TrapBranch)
		} else {
			cfg = R10000(TrapBranch)
		}
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf, 1)
		_, err := cfg.WithMaxInsts(5000).WithTrace(sink.Emit).Run(prog)
		if !errors.Is(err, govern.ErrBudget) {
			t.Fatalf("%v: want budget abort, got %v", machine, err)
		}
		// The abort path's contract: close (→ flush) the sink, then the
		// partial trace on disk is valid line-by-line.
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if len(lines) < 1000 {
			t.Fatalf("%v: only %d trace lines survived the abort", machine, len(lines))
		}
		for _, line := range lines {
			if !json.Valid([]byte(line)) {
				t.Fatalf("%v: aborted trace has malformed line %q", machine, line)
			}
		}
	}
}
