// Command benchdiff compares a freshly measured hotpathbench report
// against the committed one and fails (exit 1) when a watched
// measurement regressed beyond its allowed threshold. It is the CI perf
// gate for the simulator's hot path (EXPERIMENTS.md "Hot-path
// benchmarks"): the committed BENCH_hotpath.json is the floor, and a
// ns/inst increase beyond a measurement's threshold breaks the build.
//
//	go run ./cmd/hotpathbench -repeat 3 -out /tmp/bench.json
//	go run ./cmd/benchdiff -committed BENCH_hotpath.json -fresh /tmp/bench.json
//
// By default every measurement present in BOTH reports is gated
// ("-measurements all"), each under its own threshold: full-cell
// measurements (ooo_cell, fig2_cell, ...) are stable at -threshold
// (default 10%), while the sub-20ns/op microbenchmarks (interp_run,
// cache_mix, dataMem_walk) swing with code layout alone and carry wider
// built-in bounds (see cellThresholds). An explicit comma-separated
// -measurements list gates exactly those names and fails if any is
// missing from either report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// result mirrors the hotpathbench Result fields benchdiff reads.
type result struct {
	NsPerOp float64 `json:"ns_per_op"`
}

// report mirrors the hotpathbench Report envelope.
type report struct {
	Label   string            `json:"label"`
	Results map[string]result `json:"results"`
}

// cellThresholds widens the gate for measurements whose per-op time is
// small enough that code layout and branch-predictor state move them by
// double-digit percentages with no semantic change. EXPERIMENTS.md
// ("Hot-path benchmarks") records the observed swing behind each bound; the
// full-cell measurements keep the flag default.
var cellThresholds = map[string]float64{
	"interp_run":   0.25, // ~19.7 ns/op raw decode loop; ±2% run-to-run, layout-sensitive
	"cache_mix":    0.30, // ~20 ns/op cache probe microbenchmark
	"dataMem_walk": 0.30, // ~4.7 ns/op pointer walk; single-ns shifts are >20%
}

func load(path string) (report, error) {
	var rep report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return rep, fmt.Errorf("%s: no results", path)
	}
	return rep, nil
}

// watchList resolves the -measurements flag: "all" selects every name
// present in both reports (sorted, so output and failures are
// deterministic); an explicit list passes through verbatim.
func watchList(spec string, ref, cur report) []string {
	if strings.TrimSpace(spec) == "all" {
		var names []string
		for name := range ref.Results {
			if _, ok := cur.Results[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		return names
	}
	var names []string
	for _, name := range strings.Split(spec, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return names
}

// thresholdFor picks a measurement's regression bound: the built-in
// per-cell noise table, else the flag default.
func thresholdFor(name string, base float64) float64 {
	if th, ok := cellThresholds[name]; ok && th > base {
		return th
	}
	return base
}

// gate compares the named measurements and reports whether any regressed
// beyond its threshold (or is missing). One line per measurement goes to
// out; diagnostics go to errOut.
func gate(ref, cur report, names []string, base float64, out, errOut io.Writer) (failed bool) {
	for _, name := range names {
		refR, ok := ref.Results[name]
		if !ok || refR.NsPerOp <= 0 {
			fmt.Fprintf(errOut, "benchdiff: %s missing from committed report\n", name)
			failed = true
			continue
		}
		curR, ok := cur.Results[name]
		if !ok || curR.NsPerOp <= 0 {
			fmt.Fprintf(errOut, "benchdiff: %s missing from fresh report\n", name)
			failed = true
			continue
		}
		th := thresholdFor(name, base)
		delta := curR.NsPerOp/refR.NsPerOp - 1
		status := "ok"
		if delta > th {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(out, "%-20s committed %9.2f ns/op  fresh %9.2f ns/op  %+6.1f%% (limit %+.0f%%)  %s\n",
			name, refR.NsPerOp, curR.NsPerOp, delta*100, th*100, status)
	}
	return failed
}

func main() {
	var (
		committed    = flag.String("committed", "BENCH_hotpath.json", "committed reference report")
		fresh        = flag.String("fresh", "", "freshly measured report (required)")
		measurements = flag.String("measurements", "all", `measurements to gate: "all" = every one present in both reports, or a comma-separated list`)
		threshold    = flag.Float64("threshold", 0.10, "default maximum ns/op regression fraction (noisy microbenchmarks carry wider built-in bounds)")
	)
	flag.Parse()
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -fresh is required")
		os.Exit(2)
	}

	ref, err := load(*committed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*fresh)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	names := watchList(*measurements, ref, cur)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no measurements to gate")
		os.Exit(2)
	}
	if gate(ref, cur, names, *threshold, os.Stdout, os.Stderr) {
		fmt.Fprintln(os.Stderr, "benchdiff: regression beyond a measurement's threshold (or missing measurement)")
		os.Exit(1)
	}
}
