// Command handlerbench regenerates the generic-miss-handler experiments of
// §4.2 of "Informing Memory Operations" (ISCA 1996):
//
//	handlerbench -experiment fig2      Figure 2 (13 benchmarks, 1/10-instr handlers)
//	handlerbench -experiment fig3      Figure 3 (su2cor)
//	handlerbench -experiment h100      100-instruction handlers (§4.2.2 text)
//	handlerbench -experiment trapmode  trap-as-branch vs trap-as-exception
//	handlerbench -experiment condcode  explicit condition-code checks vs traps
//	handlerbench -experiment sampling  sampled 100-instruction handlers
//	handlerbench -experiment counters  §1 strawman: serializing miss counters
//	handlerbench -experiment prefetch  §6 case study: stride prefetching as a miss handler
//	handlerbench -experiment all       everything above
//
// handlerbench -list describes the benchmark suite.
//
// Use -scale to grow/shrink the workloads, -raw for per-run statistics,
// -policy to select the data-hierarchy replacement policy (lru, srrip,
// brrip, trrip — the tables then measure that policy's cells, with the
// miss taxonomy attributing every miss to its cause), and -j to bound
// the worker pool that shards the sweep's independent
// (benchmark, machine, plan) cells (default: GOMAXPROCS; -j 1 is the
// sequential reference path and produces byte-identical tables).
// -cpuprofile/-memprofile write pprof profiles of the sweep (the hot-path
// optimisation workflow of EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"informing/internal/experiments"
	"informing/internal/govern"
	"informing/internal/obs"
	"informing/internal/prof"
	"informing/internal/workload"
)

// sess is the observability session; the error exit path routes through it
// so aborted sweeps still flush the trace sink and print metrics.
var sess *obs.Session

func main() {
	var (
		exp    = flag.String("experiment", "all", "fig2|fig3|h100|trapmode|condcode|sampling|counters|prefetch|all")
		scale  = flag.Int64("scale", 1, "workload iteration multiplier")
		policy = flag.String("policy", "", "data-hierarchy replacement policy (lru|srrip|brrip|trrip; empty = lru)")
		raw    = flag.Bool("raw", false, "also print raw per-run statistics")
		list   = flag.Bool("list", false, "describe the benchmark suite and exit")
		jobs   = flag.Int("j", runtime.GOMAXPROCS(0), "simulation worker count (1 = sequential)")
	)
	pf := prof.Register()
	of := obs.RegisterFlags()
	flag.Parse()

	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "handlerbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	if sess, err = of.Start(os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "handlerbench: %v\n", err)
		prof.StopThenExit(stopProf, 1)
	}
	defer sess.Close()

	if *list {
		fmt.Println("SPEC92 stand-in suite (see DESIGN.md for the substitution argument):")
		for _, bm := range workload.All() {
			fmt.Printf("  %-10s %-4s %s\n", bm.Name, bm.Class, bm.About)
		}
		return
	}

	// Ctrl-C (or SIGTERM) cancels the sweep at the next governor poll;
	// whatever results completed by then are still printed.
	ctx, stop := govern.SignalContext(nil)
	defer stop()

	opt := experiments.DefaultOptions()
	opt.Scale = *scale
	opt.Policy = *policy
	opt.Ctx = ctx
	opt.Workers = *jobs
	// The trace sink and the metrics are goroutine-safe, so one session
	// serves the whole worker pool; metrics aggregate across all cells of
	// the sweep.
	opt.Obs = sess.Sim
	opt.Trace = sess.Trace()
	opt.TraceEvery = sess.TraceEvery()

	// partial prints the results an interrupted experiment completed
	// before returning its error.
	partial := func(res []experiments.Result, err error) error {
		if len(res) > 0 {
			fmt.Printf("--- partial results (%d runs completed before abort) ---\n", len(res))
			fmt.Print(experiments.FormatRuns(res))
		}
		return err
	}

	// The table-shaped experiments come from experiments.Named — the same
	// definitions informd serves, so the CLI tables and the served tables
	// cannot drift apart. trapmode is the one ratio-shaped exception.
	run := func(name string) error {
		if name == "trapmode" {
			ratios, res, err := experiments.TrapModeComparison(opt)
			if err != nil {
				return partial(res, err)
			}
			fmt.Println("Trap handling on the out-of-order machine: exception vs branch")
			fmt.Println("(paper §4.2.2: exceptions cost compress +9% with 1-instr and +7% with 10-instr handlers)")
			for _, k := range []string{"S1", "S10"} {
				fmt.Printf("  compress %-4s exception/branch execution-time ratio: %.3f (%+.1f%%)\n",
					k, ratios[k], 100*(ratios[k]-1))
			}
			if *raw {
				fmt.Print(experiments.FormatRuns(res))
			}
			fmt.Println()
			return nil
		}
		ne, err := experiments.Named(name)
		if err != nil {
			return fmt.Errorf("unknown experiment %q", name)
		}
		o := opt
		o.Baseline = ne.Baseline
		res, err := experiments.HandlerOverhead(ne.Benchmarks, ne.Specs, o)
		if err != nil {
			return partial(res, err)
		}
		fmt.Print(experiments.FormatFigure(ne.Title, res))
		if ne.Summary {
			fmt.Println()
			fmt.Print(experiments.FormatOverheadSummary(res))
		}
		if name == "prefetch" {
			// The case study's payload is the taxonomy shift, not the
			// overhead bars: show where the misses went.
			fmt.Println()
			fmt.Print(experiments.FormatTaxonomy("Miss taxonomy under prefetch handlers", res))
		}
		if *raw {
			fmt.Print(experiments.FormatRuns(res))
		}
		fmt.Println()
		return nil
	}

	runAll(run, *exp, stopProf)
}

func runAll(run func(string) error, exp string, stopProf func()) {
	names := []string{exp}
	if exp == "all" {
		names = []string{"fig2", "fig3", "h100", "trapmode", "condcode", "sampling", "counters", "prefetch"}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintf(os.Stderr, "handlerbench: %v\n", err)
			if snap, ok := govern.SnapshotIn(err); ok {
				fmt.Fprintf(os.Stderr, "handlerbench: aborted at %v\n", snap)
			}
			// prof.StopThenExit calls os.Exit (skipping defers), so the
			// abort path must flush the trace sink itself — losing the
			// buffered tail here was the bug this layer fixes.
			if err := sess.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "handlerbench: %v\n", err)
			}
			prof.StopThenExit(stopProf, 1)
		}
	}
}
