// Command hotpathbench measures the per-instruction hot path of the
// single-cell simulation pipeline and records the numbers in a JSON
// report (BENCH_hotpath.json at the repository root). It is the
// regression baseline for perf work: run it before and after an
// optimisation and compare ns/inst, allocs/inst and cells/sec.
//
//	hotpathbench -out BENCH_hotpath.json -label optimized \
//	             -baseline BENCH_hotpath_baseline.json
//
// The -baseline flag embeds a previously recorded report (typically one
// captured at the pre-optimisation commit) under "baseline" and computes
// per-measurement speedups. The committed BENCH_hotpath_baseline.json
// holds the pre-optimisation reference measurements; `make bench`
// regenerates BENCH_hotpath.json against it.
//
// Measurements:
//
//	cache_mix     mem.Hierarchy.ProbeData on a sequential/strided/hot-set
//	              access mix (the memoization target), ns per reference
//	dataMem_walk  isa.DataMem Load/Store walk, ns per access
//	interp_run    functional interp.Machine over a full workload with the
//	              real two-level probe, ns and allocs per instruction
//	ooo_cell      one out-of-order timing cell (compress, S1, trap-branch)
//	inorder_cell  one in-order timing cell (tomcatv, S1, trap-branch)
//	fig2_cell     one Figure-2 sweep cell: baseline (off/N) plus
//	              instrumented (trap-branch/S1) run, reported as cells/sec
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"informing/internal/core"
	"informing/internal/interp"
	"informing/internal/isa"
	"informing/internal/mem"
	"informing/internal/obs"
	"informing/internal/prof"
	"informing/internal/workload"
)

// sess is the observability session. Measuring a timing cell with
// `-metrics` (and optionally `-trace-out`/`-trace-sample`) quantifies the
// enabled-path overhead against a plain run — the workflow that enforces
// the DESIGN.md §11 budget.
var sess *obs.Session

// Result is one measurement in the report.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Ops         uint64  `json:"ops"`
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
}

// Report is the serialised form of one hotpathbench invocation.
type Report struct {
	Label   string            `json:"label"`
	Go      string            `json:"go"`
	Results map[string]Result `json:"results"`

	// Baseline, when present, is the pre-optimisation report this run is
	// compared against; Speedup is baseline ns_per_op / this ns_per_op.
	Baseline *Report            `json:"baseline,omitempty"`
	Speedup  map[string]float64 `json:"speedup,omitempty"`
}

func main() {
	var (
		out      = flag.String("out", "-", "output file (- = stdout)")
		label    = flag.String("label", "current", "report label")
		baseline = flag.String("baseline", "", "embed this previously recorded report as the baseline")
		repeat   = flag.Int("repeat", 3, "repetitions per measurement (best-of)")
	)
	pf := prof.Register()
	of := obs.RegisterFlags()
	flag.Parse()

	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hotpathbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	if sess, err = of.Start(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "hotpathbench: %v\n", err)
		prof.StopThenExit(stopProf, 1)
	}
	defer sess.Close()

	rep := Report{Label: *label, Go: runtime.Version(), Results: map[string]Result{}}

	measure := func(name string, fn func() (ops uint64, err error)) {
		best := Result{NsPerOp: -1}
		for i := 0; i < *repeat; i++ {
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			ops, err := fn()
			el := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hotpathbench: %s: %v\n", name, err)
				sess.CloseThenExit(1)
			}
			r := Result{
				NsPerOp:     float64(el.Nanoseconds()) / float64(ops),
				AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
				Ops:         ops,
				CellsPerSec: 1 / el.Seconds(),
			}
			if best.NsPerOp < 0 || r.NsPerOp < best.NsPerOp {
				best = r
			}
		}
		rep.Results[name] = best
		fmt.Fprintf(os.Stderr, "%-13s %10.2f ns/op %8.4f allocs/op (%d ops)\n",
			name, best.NsPerOp, best.AllocsPerOp, best.Ops)
	}

	measure("cache_mix", benchCacheMix)
	measure("dataMem_walk", benchDataMemWalk)
	measure("interp_run", benchInterpRun)
	measure("ooo_cell", func() (uint64, error) { return benchCell(core.R10000(core.TrapBranch), "compress") })
	measure("inorder_cell", func() (uint64, error) { return benchCell(core.Alpha21164(core.TrapBranch), "tomcatv") })
	measure("fig2_cell", benchFig2Cell)

	if *baseline != "" {
		b, err := os.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hotpathbench: %v\n", err)
			sess.CloseThenExit(1)
		}
		var base Report
		if err := json.Unmarshal(b, &base); err != nil {
			fmt.Fprintf(os.Stderr, "hotpathbench: baseline: %v\n", err)
			sess.CloseThenExit(1)
		}
		base.Baseline, base.Speedup = nil, nil // never nest
		rep.Baseline = &base
		rep.Speedup = map[string]float64{}
		for name, r := range rep.Results {
			if br, ok := base.Results[name]; ok && r.NsPerOp > 0 {
				rep.Speedup[name] = br.NsPerOp / r.NsPerOp
			}
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hotpathbench: %v\n", err)
		sess.CloseThenExit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "hotpathbench: %v\n", err)
		sess.CloseThenExit(1)
	}
}

// benchCacheMix drives the two-level hierarchy with the reference patterns
// the memo fast path targets: long sequential walks (same line re-hit 4x),
// an 8-byte strided sweep, and a seeded hot-set random mix.
func benchCacheMix() (uint64, error) {
	hier, err := mem.NewHierarchy(mem.HierConfig{
		L1: mem.CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 2},
		L2: mem.CacheConfig{SizeBytes: 2 << 20, LineBytes: 32, Assoc: 2},
	})
	if err != nil {
		return 0, err
	}
	const n = 2_000_000
	lcg := uint64(1)
	for i := uint64(0); i < n; i++ {
		var addr uint64
		switch i & 3 {
		case 0, 1: // sequential word walk over 64 KB
			addr = (i * 8) & (64<<10 - 1)
		case 2: // strided sweep, one word per line over 256 KB
			addr = (i * 32) & (256<<10 - 1)
		default: // hot-set random over 16 KB
			lcg = lcg*6364136223846793005 + 1442695040888963407
			addr = (lcg >> 33) & (16<<10 - 1)
		}
		hier.ProbeData(addr, i&7 == 0)
	}
	return n, nil
}

// benchDataMemWalk exercises isa.DataMem with the dominant
// sequential/strided patterns of the workload generators.
func benchDataMemWalk() (uint64, error) {
	var m isa.DataMem
	const n = 2_000_000
	sum := uint64(0)
	for i := uint64(0); i < n; i++ {
		addr := (i * 8) & (1<<20 - 1) // sequential over 1 MB
		if i&3 == 3 {
			addr = (i * 4096) & (1<<24 - 1) // page-hopping store
		}
		if i&1 == 0 {
			m.Store(addr, i)
		} else {
			sum += m.Load(addr)
		}
	}
	_ = sum
	return n, nil
}

// benchInterpRun runs the functional machine over a full workload with the
// real two-level probe attached — the untimed hot loop shared by both
// timing cores.
func benchInterpRun() (uint64, error) {
	bm, ok := workload.ByName("espresso")
	if !ok {
		return 0, fmt.Errorf("unknown benchmark espresso")
	}
	prog, err := workload.Build(bm, workload.NewPlanNone(), 1)
	if err != nil {
		return 0, err
	}
	hier, err := mem.NewHierarchy(mem.HierConfig{
		L1: mem.CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 2},
		L2: mem.CacheConfig{SizeBytes: 2 << 20, LineBytes: 32, Assoc: 2},
	})
	if err != nil {
		return 0, err
	}
	m := interp.New(prog, interp.ModeOff, hier.ProbeData)
	if err := m.Run(100_000_000); err != nil {
		return 0, err
	}
	return m.Seq, nil
}

// withObs applies the session's observability (if any) to a cell config,
// so the enabled-path cost shows up in the measured ns/inst.
func withObs(cfg core.Config) core.Config {
	cfg = cfg.WithObs(sess.Sim)
	if tr := sess.Trace(); tr != nil {
		cfg = cfg.WithTrace(tr).WithTraceEvery(sess.TraceEvery())
	}
	return cfg
}

// benchCell runs one full timing cell and reports dynamic instructions.
func benchCell(cfg core.Config, bench string) (uint64, error) {
	bm, ok := workload.ByName(bench)
	if !ok {
		return 0, fmt.Errorf("unknown benchmark %s", bench)
	}
	prog, err := workload.Build(bm, workload.NewPlanSingle(1), 1)
	if err != nil {
		return 0, err
	}
	run, err := withObs(cfg).WithMaxInsts(100_000_000).Run(prog)
	if err != nil {
		return 0, err
	}
	return run.DynInsts, nil
}

// benchFig2Cell reproduces one cell of the Figure-2 sweep: the
// uninstrumented baseline run plus the instrumented run whose overhead the
// figure normalises against it.
func benchFig2Cell() (uint64, error) {
	bm, ok := workload.ByName("compress")
	if !ok {
		return 0, fmt.Errorf("unknown benchmark compress")
	}
	base, err := workload.Build(bm, workload.NewPlanNone(), 1)
	if err != nil {
		return 0, err
	}
	inst, err := workload.Build(bm, workload.NewPlanSingle(1), 1)
	if err != nil {
		return 0, err
	}
	r1, err := withObs(core.R10000(core.Off)).WithMaxInsts(100_000_000).Run(base)
	if err != nil {
		return 0, err
	}
	r2, err := withObs(core.R10000(core.TrapBranch)).WithMaxInsts(100_000_000).Run(inst)
	if err != nil {
		return 0, err
	}
	return r1.DynInsts + r2.DynInsts, nil
}
