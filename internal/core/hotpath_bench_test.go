package core

import (
	"runtime"
	"testing"

	"informing/internal/interp"
	"informing/internal/isa"
	"informing/internal/mem"
	"informing/internal/workload"
)

// Hot-path micro/macro benchmarks (DESIGN.md §10). Run with
//
//	go test -bench 'Hotpath' -benchmem ./internal/core
//
// cmd/hotpathbench records the same measurements into BENCH_hotpath.json
// for the committed before/after regression baseline; these testing.B
// forms are for interactive work and for the CI allocation assertion
// (TestTimingHotLoopAllocationFree below).

func buildBench(b *testing.B, bench string, plan workload.Plan) *isa.Program {
	b.Helper()
	bm, ok := workload.ByName(bench)
	if !ok {
		b.Fatalf("unknown benchmark %s", bench)
	}
	prog, err := workload.Build(bm, plan, 1)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkHotpathCacheMix measures mem.Hierarchy.ProbeData on the access
// mix the way memo targets: sequential word walks, strided line sweeps,
// and a hot-set random component.
func BenchmarkHotpathCacheMix(b *testing.B) {
	hier, err := mem.NewHierarchy(mem.HierConfig{
		L1: mem.CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 2},
		L2: mem.CacheConfig{SizeBytes: 2 << 20, LineBytes: 32, Assoc: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	lcg := uint64(1)
	for i := 0; i < b.N; i++ {
		u := uint64(i)
		var addr uint64
		switch u & 3 {
		case 0, 1:
			addr = (u * 8) & (64<<10 - 1)
		case 2:
			addr = (u * 32) & (256<<10 - 1)
		default:
			lcg = lcg*6364136223846793005 + 1442695040888963407
			addr = (lcg >> 33) & (16<<10 - 1)
		}
		hier.ProbeData(addr, u&7 == 0)
	}
}

// BenchmarkHotpathDataMemWalk measures isa.DataMem Load/Store under the
// sequential and page-hopping patterns the MRU-page memo targets.
func BenchmarkHotpathDataMemWalk(b *testing.B) {
	var m isa.DataMem
	b.ReportAllocs()
	sum := uint64(0)
	for i := 0; i < b.N; i++ {
		u := uint64(i)
		addr := (u * 8) & (1<<20 - 1)
		if u&3 == 3 {
			addr = (u * 4096) & (1<<24 - 1)
		}
		if u&1 == 0 {
			m.Store(addr, u)
		} else {
			sum += m.Load(addr)
		}
	}
	_ = sum
}

// BenchmarkHotpathInterpRun measures the functional machine alone (the
// untimed per-instruction loop shared by both timing cores), reported per
// dynamic instruction.
func BenchmarkHotpathInterpRun(b *testing.B) {
	prog := buildBench(b, "espresso", workload.NewPlanNone())
	b.ReportAllocs()
	var insts uint64
	for i := 0; i < b.N; i++ {
		hier, err := mem.NewHierarchy(mem.HierConfig{
			L1: mem.CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 2},
			L2: mem.CacheConfig{SizeBytes: 2 << 20, LineBytes: 32, Assoc: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		m := interp.New(prog, interp.ModeOff, hier.ProbeData)
		if err := m.Run(100_000_000); err != nil {
			b.Fatal(err)
		}
		insts += m.Seq
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

func benchTimingCell(b *testing.B, cfg Config, bench string, plan workload.Plan) {
	b.Helper()
	prog := buildBench(b, bench, plan)
	b.ReportAllocs()
	var insts uint64
	for i := 0; i < b.N; i++ {
		run, err := cfg.WithMaxInsts(100_000_000).Run(prog)
		if err != nil {
			b.Fatal(err)
		}
		insts += run.DynInsts
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

// BenchmarkHotpathOOOCell measures one full out-of-order timing cell
// (compress, single-instruction handler, trap-as-branch).
func BenchmarkHotpathOOOCell(b *testing.B) {
	benchTimingCell(b, R10000(TrapBranch), "compress", workload.NewPlanSingle(1))
}

// BenchmarkHotpathInorderCell measures one full in-order timing cell
// (tomcatv, single-instruction handler).
func BenchmarkHotpathInorderCell(b *testing.B) {
	benchTimingCell(b, Alpha21164(TrapBranch), "tomcatv", workload.NewPlanSingle(1))
}

// BenchmarkHotpathFig2Cell measures one cell of the Figure-2 sweep:
// the uninstrumented baseline run plus the instrumented run the figure
// normalises against it.
func BenchmarkHotpathFig2Cell(b *testing.B) {
	base := buildBench(b, "compress", workload.NewPlanNone())
	instr := buildBench(b, "compress", workload.NewPlanSingle(1))
	cfg := R10000(TrapBranch).WithMaxInsts(100_000_000)
	off := R10000(Off).WithMaxInsts(100_000_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := off.Run(base); err != nil {
			b.Fatal(err)
		}
		if _, err := cfg.Run(instr); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTimingHotLoopAllocationFree is the CI allocation regression gate:
// the per-instruction simulation pipeline (interp.Step plus the ooo and
// inorder schedulers, including the memoized cache and data-memory paths)
// must not allocate per dynamic instruction. The miss taxonomy is always
// enabled on the data hierarchy, so every cell here also gates the
// classifier's hot path (the tag table's and the shadow node pool's
// amortized doubling rides inside the budget); the policy
// cells gate the RRIP paths — including TRRIP, whose temperature history
// is bounded at 1024 entries and must not grow with the run. Each cell
// runs twice at different instruction counts; the allocation delta per
// extra instruction must be ~0 (setup allocations cancel out).
func TestTimingHotLoopAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate runs full cells")
	}
	cells := []struct {
		name    string
		machine Machine
		kernel  bool
		policy  string
	}{
		{"ooo", OutOfOrder, true, ""},
		{"inorder", InOrder, true, ""},
		{"ooo-perinst", OutOfOrder, false, ""},
		{"inorder-perinst", InOrder, false, ""},
		{"ooo-srrip", OutOfOrder, true, "srrip"},
		{"inorder-trrip", InOrder, true, "trrip"},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			bm, ok := workload.ByName("compress")
			if !ok {
				t.Fatal("unknown benchmark compress")
			}
			run := func(scale int64) (allocs, insts uint64) {
				prog, err := workload.Build(bm, workload.NewPlanSingle(1), scale)
				if err != nil {
					t.Fatal(err)
				}
				var cfg Config
				if c.machine == InOrder {
					cfg = Alpha21164(TrapBranch)
				} else {
					cfg = R10000(TrapBranch)
				}
				cfg = cfg.WithBlockKernel(c.kernel).WithPolicy(c.policy)
				runtime.GC()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				r, err := cfg.WithMaxInsts(100_000_000).Run(prog)
				runtime.ReadMemStats(&m1)
				if err != nil {
					t.Fatal(err)
				}
				return m1.Mallocs - m0.Mallocs, r.DynInsts
			}
			a1, n1 := run(1)
			a2, n2 := run(3)
			if n2 <= n1 {
				t.Fatalf("scaling did not grow the run: %d -> %d insts", n1, n2)
			}
			perInst := (float64(a2) - float64(a1)) / float64(n2-n1)
			t.Logf("%s: %d insts / %d allocs vs %d insts / %d allocs -> %.6f allocs/inst",
				c.name, n1, a1, n2, a2, perInst)
			// The pre-optimization pipeline allocated ~1 per instruction
			// (Inst.Sources); demand at least two orders of magnitude
			// better, with slack for incidental growth (map resizes in
			// DataMem, MSHR bookkeeping).
			if perInst > 0.01 {
				t.Fatalf("per-instruction allocation regression: %.4f allocs/inst (want ~0)", perInst)
			}
		})
	}
}
