// Package informing's root benchmarks regenerate every table and figure of
// "Informing Memory Operations" (ISCA 1996) at reduced scale, one
// testing.B benchmark per experiment (see DESIGN.md §4 for the index), plus
// the ablation studies DESIGN.md calls out. Custom metrics report the
// paper-relevant quantities (normalised overheads, speedups) alongside
// wall-clock simulation cost:
//
//	go test -bench=. -benchmem
//
// Full-size reproductions are produced by cmd/handlerbench and
// cmd/coherencebench.
package informing

import (
	"fmt"
	"testing"

	"informing/internal/coherence"
	"informing/internal/core"
	"informing/internal/experiments"
	"informing/internal/multi"
	"informing/internal/sched"
	"informing/internal/workload"
)

// mustBench resolves a benchmark by name, failing the benchmark on
// unknown names instead of silently measuring a zero-value kernel.
func mustBench(b *testing.B, name string) workload.Benchmark {
	b.Helper()
	bm, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %s", name)
	}
	return bm
}

func mustRun(b *testing.B, cfg core.Config, bm workload.Benchmark, plan workload.Plan) float64 {
	b.Helper()
	prog, err := workload.Build(bm, plan, 1)
	if err != nil {
		b.Fatal(err)
	}
	run, err := cfg.WithMaxInsts(100_000_000).Run(prog)
	if err != nil {
		b.Fatal(err)
	}
	return float64(run.Cycles)
}

func benchOverhead(b *testing.B, machine func(core.Scheme) core.Config, bench string, plan func() workload.Plan) {
	bm := mustBench(b, bench)
	var overhead float64
	for i := 0; i < b.N; i++ {
		base := mustRun(b, machine(core.Off), bm, workload.NewPlanNone())
		inst := mustRun(b, machine(core.TrapBranch), bm, plan())
		overhead = inst / base
	}
	b.ReportMetric(overhead, "normtime")
}

// --- E1: Figure 2 ------------------------------------------------------

func BenchmarkFig2OutOfOrderS1(b *testing.B) {
	benchOverhead(b, core.R10000, "compress", func() workload.Plan { return workload.NewPlanSingle(1) })
}

func BenchmarkFig2OutOfOrderU10(b *testing.B) {
	benchOverhead(b, core.R10000, "compress", func() workload.Plan { return workload.NewPlanUnique(10) })
}

func BenchmarkFig2InOrderS1(b *testing.B) {
	benchOverhead(b, core.Alpha21164, "tomcatv", func() workload.Plan { return workload.NewPlanSingle(1) })
}

func BenchmarkFig2InOrderS10(b *testing.B) {
	benchOverhead(b, core.Alpha21164, "tomcatv", func() workload.Plan { return workload.NewPlanSingle(10) })
}

// BenchmarkFig2FullSweep regenerates the whole figure (13 benchmarks x 5
// plans x 2 machines); heavy, so it reports the mean S1 overhead. The
// j=1 / j=GOMAXPROCS sub-benchmarks make the parallel runner's wall-clock
// win (and any regression in it) visible in ordinary bench output.
func BenchmarkFig2FullSweep(b *testing.B) {
	if testing.Short() {
		b.Skip("full sweep is heavy")
	}
	fig2, err := experiments.Named("fig2")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		workers := workers
		b.Run(fmt.Sprintf("j=%d", sched.Workers(workers)), func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				opt := experiments.DefaultOptions()
				opt.Workers = workers
				res, err := experiments.HandlerOverhead(fig2.Benchmarks, fig2.Specs, opt)
				if err != nil {
					b.Fatal(err)
				}
				var sum float64
				var n int
				for _, r := range res {
					if r.Plan == "S1" {
						sum += r.Norm.Total()
						n++
					}
				}
				mean = sum / float64(n)
			}
			b.ReportMetric(mean, "meanS1normtime")
		})
	}
}

// --- E2: Figure 3 ------------------------------------------------------

func BenchmarkFig3Su2corInOrderS10(b *testing.B) {
	benchOverhead(b, core.Alpha21164, "su2cor", func() workload.Plan { return workload.NewPlanSingle(10) })
}

func BenchmarkFig3Su2corOutOfOrderS10(b *testing.B) {
	benchOverhead(b, core.R10000, "su2cor", func() workload.Plan { return workload.NewPlanSingle(10) })
}

// --- E3: 100-instruction handlers ---------------------------------------

func BenchmarkH100Compress(b *testing.B) {
	benchOverhead(b, core.R10000, "compress", func() workload.Plan { return workload.NewPlanSingle(100) })
}

func BenchmarkH100Ora(b *testing.B) {
	benchOverhead(b, core.R10000, "ora", func() workload.Plan { return workload.NewPlanSingle(100) })
}

// --- E4: trap-as-branch vs trap-as-exception ----------------------------

func BenchmarkTrapModeCompress(b *testing.B) {
	bm := mustBench(b, "compress")
	var ratio float64
	for i := 0; i < b.N; i++ {
		br := mustRun(b, core.R10000(core.TrapBranch), bm, workload.NewPlanSingle(10))
		ex := mustRun(b, core.R10000(core.TrapException), bm, workload.NewPlanSingle(10))
		ratio = ex / br
	}
	b.ReportMetric(ratio, "exc/branch")
}

// --- E5: Figure 4 (coherence case study) --------------------------------

func BenchmarkFig4(b *testing.B) {
	cfg := multi.DefaultConfig()
	var refSlow, eccSlow float64
	for i := 0; i < b.N; i++ {
		_, speedup, err := coherence.Figure4(cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		refSlow = speedup["reference-checking"]
		eccSlow = speedup["ecc-fault"]
	}
	b.ReportMetric(100*refSlow, "refcheck-%slower")
	b.ReportMetric(100*eccSlow, "ecc-%slower")
}

func BenchmarkFig4SingleApp(b *testing.B) {
	cfg := multi.DefaultConfig()
	app := coherence.Water(cfg.Processors)
	pol := coherence.Schemes()[2] // informing
	for i := 0; i < b.N; i++ {
		if _, err := multi.Simulate(app, pol, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: §3.3 speculative-fill invalidation ------------------------------

func BenchmarkSpecInvalidate(b *testing.B) {
	bm := mustBench(b, "alvinn")
	prog, err := workload.Build(bm, workload.NewPlanSingle(1), 1)
	if err != nil {
		b.Fatal(err)
	}
	var invals float64
	for i := 0; i < b.N; i++ {
		cfg := core.R10000(core.TrapBranch)
		cfg.OOO.ExtendMSHRLifetime = true
		cfg.OOO.SpecInjectEvery = 32
		cfg.OOO.SpecInjectStride = 8192
		run, err := cfg.WithMaxInsts(100_000_000).Run(prog)
		if err != nil {
			b.Fatal(err)
		}
		invals = float64(run.SpecInvalidates)
		if run.MSHRPeak > 8 {
			b.Fatalf("MSHR peak %d exceeds 8 (paper: eight sufficed)", run.MSHRPeak)
		}
	}
	b.ReportMetric(invals, "invalidations")
}

// BenchmarkCountersVsInforming reproduces the §1 motivation: the cost of
// counter-based per-reference monitoring relative to the informing trap.
func BenchmarkCountersVsInforming(b *testing.B) {
	bm := mustBench(b, "alvinn")
	var ratio float64
	for i := 0; i < b.N; i++ {
		cnt := mustRun(b, core.R10000(core.Off), bm, workload.NewPlanCounter())
		trap := mustRun(b, core.R10000(core.TrapBranch), bm, workload.NewPlanSingle(1))
		ratio = cnt / trap
	}
	b.ReportMetric(ratio, "counter/informing")
}

// --- Ablations (DESIGN.md §4) --------------------------------------------

// BenchmarkAblationShadowStates quantifies the §3.2 hardware question: how
// much performance the extra branch shadow state buys when informing
// references consume it.
func BenchmarkAblationShadowStates(b *testing.B) {
	bm := mustBench(b, "compress")
	prog, err := workload.Build(bm, workload.NewPlanSingle(1), 1)
	if err != nil {
		b.Fatal(err)
	}
	run := func(shadow int) float64 {
		cfg := core.R10000(core.TrapBranch)
		cfg.OOO.ShadowStates = shadow
		r, err := cfg.WithMaxInsts(100_000_000).Run(prog)
		if err != nil {
			b.Fatal(err)
		}
		return float64(r.Cycles)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = run(4) / run(12) // R10000-like 4 vs the paper's ~3x provisioning
	}
	b.ReportMetric(ratio, "4vs12shadow")
}

// BenchmarkAblationMSHRs sweeps the lockup-free cache depth.
func BenchmarkAblationMSHRs(b *testing.B) {
	bm := mustBench(b, "swm256")
	prog, err := workload.Build(bm, workload.NewPlanNone(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		b.Run(itoa(n), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				cfg := core.R10000(core.Off)
				cfg.OOO.Timing.MSHRs = n
				r, err := cfg.WithMaxInsts(100_000_000).Run(prog)
				if err != nil {
					b.Fatal(err)
				}
				cycles = float64(r.Cycles)
			}
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkAblationROB sweeps the reorder-buffer size on a miss-heavy
// workload.
func BenchmarkAblationROB(b *testing.B) {
	bm := mustBench(b, "mdljsp2")
	prog, err := workload.Build(bm, workload.NewPlanNone(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{16, 32, 64} {
		n := n
		b.Run(itoa(n), func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				cfg := core.R10000(core.Off)
				cfg.OOO.ROBSize = n
				r, err := cfg.WithMaxInsts(100_000_000).Run(prog)
				if err != nil {
					b.Fatal(err)
				}
				cycles = float64(r.Cycles)
			}
			b.ReportMetric(cycles, "cycles")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// instructions per wall second) — the engineering figure of merit.
func BenchmarkSimulatorThroughput(b *testing.B) {
	bm := mustBench(b, "espresso")
	prog, err := workload.Build(bm, workload.NewPlanNone(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name string
		cfg  core.Config
	}{
		{"ooo", core.R10000(core.Off)},
		{"inorder", core.Alpha21164(core.Off)},
	} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			var insts uint64
			for i := 0; i < b.N; i++ {
				r, err := m.cfg.WithMaxInsts(100_000_000).Run(prog)
				if err != nil {
					b.Fatal(err)
				}
				insts = r.DynInsts
			}
			b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "siminsts/s")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
