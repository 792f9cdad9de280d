// Command tracereplay replays a recorded schema-v2 JSONL pipeline trace
// (informsim -trace-out, or GET from a served batch) through the cache
// hierarchy of either machine model — no ISA program, no timing cores;
// just the memory behavior the trace carries (DESIGN.md §16):
//
//	tracereplay trace.jsonl                    replay through the ooo geometry
//	tracereplay -machine inorder trace.jsonl   ... the in-order geometry
//	tracereplay -expect stats.json trace.jsonl closed-loop reconciliation
//	tracereplay -sweep -j 4 trace.jsonl        cache-geometry sensitivity sweep
//
// With -expect, the replayed per-level reference and miss counters must
// match the recording run's statistics (informsim -stats-out) exactly;
// any delta exits non-zero — this is the trace-integrity gate CI's
// trace-smoke lane runs. With -sweep, the trace is loaded once and
// replayed through the default geometry variants (internal/experiments
// TraceGeometries) on a -j worker pool; geometries that share an L1 share
// one pass, which replays the L1 once and feeds its misses to each of
// their L2s. -expect and -maxrefs do not apply to a sweep, and giving
// either with -sweep exits 2.
//
// Sampled traces (-trace-sample N recordings) are refused unless
// -allow-sampled is given: a gapped trace cannot reconcile and silently
// under-counts misses. Concatenated traces replay as independent
// segments, each from cold caches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"informing/internal/core"
	"informing/internal/experiments"
	"informing/internal/govern"
	"informing/internal/sched"
	"informing/internal/stats"
	"informing/internal/trace"
)

func main() {
	var (
		machine      = flag.String("machine", "ooo", "replay geometry: ooo|inorder (the recording machine)")
		allowSampled = flag.Bool("allow-sampled", false, "admit traces with seq gaps (no exact reconciliation)")
		expect       = flag.String("expect", "", "stats.Run JSON (informsim -stats-out) to reconcile against; any delta exits 1")
		maxRefs      = flag.Uint64("maxrefs", 0, "memory-reference budget (0 = unlimited)")
		sweep        = flag.Bool("sweep", false, "replay through the default cache-geometry sweep instead of one geometry")
		workers      = flag.Int("j", 1, "sweep worker count (<= 0 selects GOMAXPROCS)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracereplay [flags] trace.jsonl|-")
		flag.Usage()
		os.Exit(2)
	}

	if *sweep {
		// The sweep neither reconciles nor bounds its replays; refuse
		// rather than print a table as if it had.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "expect" || f.Name == "maxrefs" {
				fmt.Fprintf(os.Stderr, "tracereplay: -%s does not apply to -sweep\n", f.Name)
				os.Exit(2)
			}
		})
	}

	var cfg core.Config
	switch *machine {
	case "ooo":
		cfg = core.R10000(core.Off)
	case "inorder":
		cfg = core.Alpha21164(core.Off)
	default:
		fail(fmt.Errorf("unknown machine %q (want ooo or inorder)", *machine))
	}

	var in io.Reader = os.Stdin
	name := flag.Arg(0)
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}

	ctx, stop := govern.SignalContext(nil)
	defer stop()
	rcfg := trace.ReaderConfig{AllowSampled: *allowSampled}

	if *sweep {
		d, err := trace.Load(in, rcfg)
		if err != nil {
			fail(err)
		}
		res, err := experiments.TraceSweep(d, experiments.TraceGeometries(cfg.HierConfig()),
			experiments.Options{Ctx: ctx, Workers: sched.Workers(*workers)})
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.FormatTraceSweep(fmt.Sprintf("trace sweep: %s (%s base geometry)", name, *machine), res))
		return
	}

	res, err := trace.Replay(in, trace.ReplayConfig{
		Hier: cfg.HierConfig(), Reader: rcfg, Ctx: ctx, MaxRefs: *maxRefs,
	})
	if err != nil {
		fail(err)
	}
	report(name, *machine, res)

	if *expect != "" {
		b, err := os.ReadFile(*expect)
		if err != nil {
			fail(err)
		}
		var run stats.Run
		if err := json.Unmarshal(b, &run); err != nil {
			fail(fmt.Errorf("%s: %w", *expect, err))
		}
		if err := res.Reconcile(run); err != nil {
			fail(err)
		}
		fmt.Printf("reconciled exactly against %s\n", *expect)
	}
}

func report(name, machine string, res *trace.ReplayResult) {
	t := res.Total
	fmt.Printf("trace:              %s (%s geometry, %d segment(s))\n", name, machine, len(res.Segments))
	fmt.Printf("events:             %d\n", t.Events)
	fmt.Printf("memory references:  %d (%d loads, %d stores)\n", t.Refs, t.Loads, t.Stores)
	fmt.Printf("L1 misses:          %d", t.L1Misses)
	if t.Refs > 0 {
		fmt.Printf(" (%.2f%%)", 100*float64(t.L1Misses)/float64(t.Refs))
	}
	fmt.Println()
	fmt.Printf("L2 misses:          %d\n", t.L2Misses)
	fmt.Printf("level mismatches:   %d\n", t.LevelMismatches)
	if t.Tids > 1 || t.Invalidations > 0 {
		fmt.Printf("threads:            %d (%d coherence invalidations)\n", t.Tids, t.Invalidations)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tracereplay: %v\n", err)
	os.Exit(1)
}
