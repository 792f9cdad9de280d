// Command benchdiff is the CI perf gate for the simulator's hot path
// (EXPERIMENTS.md "Hot-path benchmarks", `make bench-gate`). It compares
// a fresh run of the hot-path Go benchmarks with the committed ledger
// BENCH_hotpath.txt, both `go test -bench` output, and fails (exit 1)
// when a measurement regressed beyond its threshold:
//
//	go test -run '^$' -bench Hotpath -benchmem -count 3 ./internal/core > /tmp/bench.txt
//	go run ./cmd/benchdiff -committed BENCH_hotpath.txt -fresh /tmp/bench.txt
//
// A measurement is a benchmark's name without "Benchmark" and the -N
// GOMAXPROCS suffix; its value is the best of its repeated lines, in
// ns/inst when the line reports it and ns/op otherwise. "-measurements
// all" gates every name in both reports, full cells at -threshold (10%)
// and the noisy microbenchmarks at the wider bounds of cellThresholds;
// an explicit list gates exactly those names. Every committed
// measurement must also be in the fresh run, so a renamed benchmark, or
// one that failed out of the run, fails the gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// report maps measurement names to their best ns/inst (or ns/op).
type report map[string]float64

// cellThresholds widens the gate for measurements whose per-op time is
// small enough that code layout and branch-predictor state move them by
// double-digit percentages with no semantic change. EXPERIMENTS.md
// ("Hot-path benchmarks") records the observed swing behind each bound; the
// full-cell measurements keep the flag default.
var cellThresholds = map[string]float64{
	"HotpathInterpRun":   0.25, // ~19.7 ns/inst raw decode loop; ±2% run-to-run, layout-sensitive
	"HotpathCacheMix":    0.30, // ~20 ns/op cache probe microbenchmark
	"HotpathDataMemWalk": 0.30, // ~4.7 ns/op pointer walk; single-ns shifts are >20%
}

// parse reads `go test -bench` output. A result line is a Benchmark name
// followed by an iteration count and value/unit pairs; it must carry
// ns/inst or ns/op. Every other line (the go: header, goos:, pkg:, PASS,
// ok, log output) is ignored.
func parse(text string) (report, error) {
	rep := report{}
	for ln, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseUint(f[1], 10, 64); err != nil {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		ns := 0.0 // go test prints ns/op first; a later ns/inst replaces it
		for i := 2; i+1 < len(f); i += 2 {
			if u := f[i+1]; u == "ns/op" || u == "ns/inst" {
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("line %d: bad %s value %q", ln+1, u, f[i])
				}
				ns = v
			}
		}
		if ns == 0 {
			return nil, fmt.Errorf("line %d: %s has no ns/inst or ns/op", ln+1, f[0])
		}
		if best, ok := rep[name]; !ok || ns < best {
			rep[name] = ns
		}
	}
	if len(rep) == 0 {
		return nil, fmt.Errorf("no benchmark results")
	}
	return rep, nil
}

// watchList resolves the -measurements flag: "all" selects every name
// present in both reports (sorted, so output and failures are
// deterministic); an explicit list passes through verbatim.
func watchList(spec string, ref, cur report) []string {
	if strings.TrimSpace(spec) == "all" {
		var names []string
		for name := range ref {
			if _, ok := cur[name]; ok {
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

// missing returns the names in a that b lacks, sorted.
func missing(a, b report) []string {
	var names []string
	for name := range a {
		if _, ok := b[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
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
// beyond its threshold or is missing, or whether any committed
// measurement is missing from the fresh run (a renamed benchmark, or one
// that failed out of the run, must not drop out of the gate silently).
// One line per measurement goes to out; diagnostics go to errOut.
func gate(ref, cur report, names []string, base float64, out, errOut io.Writer) (failed bool) {
	for _, name := range missing(ref, cur) {
		fmt.Fprintf(errOut, "benchdiff: committed %s missing from fresh report\n", name)
		failed = true
	}
	for _, name := range missing(cur, ref) {
		fmt.Fprintf(errOut, "benchdiff: %s is new (not in the committed report, not gated)\n", name)
	}
	for _, name := range names {
		refNs, ok := ref[name]
		if !ok {
			fmt.Fprintf(errOut, "benchdiff: %s missing from committed report\n", name)
			failed = true
			continue
		}
		curNs, ok := cur[name]
		if !ok {
			fmt.Fprintf(errOut, "benchdiff: %s missing from fresh report\n", name)
			failed = true
			continue
		}
		th := thresholdFor(name, base)
		delta := curNs/refNs - 1
		status := "ok"
		if delta > th {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(out, "%-20s committed %9.2f ns  fresh %9.2f ns  %+6.1f%% (limit %+.0f%%)  %s\n",
			name, refNs, curNs, delta*100, th*100, status)
	}
	return failed
}

func main() {
	var (
		committed    = flag.String("committed", "BENCH_hotpath.txt", "committed reference: go test -bench output")
		fresh        = flag.String("fresh", "", "freshly measured go test -bench output (required)")
		measurements = flag.String("measurements", "all", `measurements to gate: "all" = every one present in both reports, or a comma-separated list`)
		threshold    = flag.Float64("threshold", 0.10, "default maximum ns/inst (or ns/op) regression fraction (noisy microbenchmarks carry wider built-in bounds)")
	)
	flag.Parse()
	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -fresh is required")
		os.Exit(2)
	}

	var reps [2]report
	for i, path := range []string{*committed, *fresh} {
		b, err := os.ReadFile(path)
		if err == nil {
			reps[i], err = parse(string(b))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", path, err)
			os.Exit(2)
		}
	}
	ref, cur := reps[0], reps[1]

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
