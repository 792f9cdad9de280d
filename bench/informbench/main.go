// Command informbench is the repository's end-to-end benchmark: one
// workload per process, its outputs checked, every metric printed by name
// with its unit, and a JSON result object as the last line of output.
//
//	go run ./informbench -workload grid -seed 1 -seconds 12 -trace 0
//	go run ./informbench -workload serve_hot -trace 1 -spans spans.jsonl
//
// (run from the bench directory, or through bench/run.sh from the
// repository root). With -trace 0 it reports the end-to-end metrics of
// BENCHMARK.json; with -trace 1 it first measures untraced, then records
// spans around every call into a layer and reports the per-layer
// metrics, plus the gap between the two halves as tracing_overhead_frac.
// It measures every layer from outside, through the packages' public
// functions; nothing in the simulator is instrumented for it.
//
// Workloads (bench/README.md says why each exists):
//
//	grid           Figure 2 handler-overhead sweep (timing cores)
//	trace_ingest   JSONL trace replay from bytes (parser)
//	trace_sweep    geometry x policy sweep over loaded traces (mem)
//	serve_hot      informd /v1/simulate cache hits (request pipeline)
//	serve_explain  informd /v1/explain cache hits
//	serve_cold     cold cells through a 3-node cluster
//	serve_upload   trace uploads through a 3-node cluster
//	serve_warm     forwarded and store hits after warm restarts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed used while the benchmark was written;
// heldOutSeed is reserved for checking claims (bench/README.md).
const (
	defaultSeed = 1
	heldOutSeed = 20261015
)

type metricDef struct{ name, unit, better string }

// endToEnd lists what every workload reports with -trace 0. Each workload
// defines its own unit of work and operation (workloadDef.unit, .op).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists what every workload reports with -trace 1. A layer the
// workload never calls reads 0.
var perLayer = []metricDef{
	{"core.ooo_ns_per_inst", "ns/inst", "lower"},
	{"core.inorder_ns_per_inst", "ns/inst", "lower"},
	{"ooo.self_ns_per_inst", "ns/inst", "lower"},
	{"inorder.self_ns_per_inst", "ns/inst", "lower"},
	{"interp.ns_per_inst", "ns/inst", "lower"},
	{"mem.probe_ns_per_ref", "ns/ref", "lower"},
	{"mem.taxonomy_ns_per_ref", "ns/ref", "lower"},
	{"mem.policy_ns_per_ref.lru", "ns/ref", "lower"},
	{"mem.policy_ns_per_ref.srrip", "ns/ref", "lower"},
	{"mem.policy_ns_per_ref.brrip", "ns/ref", "lower"},
	{"mem.policy_ns_per_ref.trrip", "ns/ref", "lower"},
	{"sched.idle_frac", "frac", "lower"},
	{"workload.build_ms", "ms", "lower"},
	{"grid.sim_insts", "count", "lower"},
	{"grid.sim_cycles", "count", "lower"},
	{"trace.parse_ns_per_event", "ns/event", "lower"},
	{"trace.replay_ns_per_ref", "ns/ref", "lower"},
	{"trace.bytes_per_event", "B/event", "lower"},
	{"serve.decode_canon_us", "us", "lower"},
	{"serve.encode_us_per_cell", "us/cell", "lower"},
	{"serve.resp_bytes_per_cell", "B/cell", "lower"},
	{"serve.hit_ratio", "frac", "higher"},
	{"serve.loopback_rtt_us", "us", "lower"},
	{"serve.cold_overhead_ms", "ms", "lower"},
	{"cluster.hop_ms", "ms", "lower"},
	{"cluster.fwd_hit_p50_ms", "ms", "lower"},
	{"cluster.forwarded", "count", "higher"},
	{"cluster.fallbacks", "count", "lower"},
	{"store.hit_p50_ms", "ms", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.payload_bytes", "B", "lower"},
	{"store.hits", "count", "higher"},
	{"tracing_overhead_frac", "frac", "lower"},
}

// workloadDef is one benchmark workload. setup builds its inputs (and
// servers); it runs setupReps times and the last instance is measured.
type workloadDef struct {
	name string
	unit string // one unit of throughput_per_s
	op   string // one operation of p50_ms and tail_ms
	// tail is the percentile tail_ms reports, in tenths of a percent: the
	// highest level (levelFor) a run's sample supports at half the
	// expected speed, unless that level proved too noisy to gate on. It
	// is fixed, so that a faster build does not move the tail to a
	// higher percentile.
	tail  int
	why   string
	setup func(e *env) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// measure runs operations until the deadline. With a tracer it
	// records a span around each call into a layer.
	measure(deadline time.Time, tr *tracer) (phase, error)
	// layers computes the per-layer metrics after a traced phase; it may
	// make timed calls of its own.
	layers(tr *tracer, m metrics) error
	// summary describes the generated inputs.
	summary() string
	close()
}

var workloads = []workloadDef{
	// About 5 passes per run: too few for a tail, so it is the median.
	{"grid", "simulated instruction", "grid pass (130 cells, 2 workers)", 500,
		"timing cores and hierarchy under HandlerOverhead, no serving; throughput counts simulated instructions, latency is one 130-cell Figure 2 pass",
		setupGrid},
	{"trace_ingest", "trace event", "replay of both traces from JSONL bytes", 500,
		"JSONL parsing dominates, the path of every trace upload; throughput counts trace events, latency is one replay of both traces from bytes",
		setupTraceIngest},
	{"trace_sweep", "reference replayed", "5 geometries x 4 policies over both traces", 500,
		"mem probe, taxonomy and the non-LRU policies grid never runs; throughput counts references replayed, latency is one 20-spec sweep of both traces",
		setupTraceSweep},
	// For the two hit workloads, p99.9 has hundreds of samples beyond it
	// but varied by 29% between runs of one build (scheduler and collector
	// pauses); p99 varied 9-16%.
	{"serve_hot", "request", "one-cell /v1/simulate request, a cache hit", 990,
		"informd request pipeline alone: one-cell /v1/simulate requests, every one an LRU hit on one node, zero simulation; per request",
		setupServeHot},
	{"serve_explain", "request", "one-cell /v1/explain request, a cache hit", 990,
		"the /v1/explain path: one-cell requests sharing the simulate cache entry, every one a hit, plus the taxonomy breakdown; per request",
		setupServeExplain},
	{"serve_cold", "request", "one-cell request, new to the cluster", 900,
		"write side of a 3-node cluster: each Figure 2 cell new to a fresh cluster, so simulation, store put and for 2/3 a peer hop; per request",
		setupServeCold},
	{"serve_upload", "request", "trace upload, new to the cluster", 900,
		"trace uploads (generated programs, 0.08-2.5 MB of JSONL) new to a fresh 3-node cluster: body decode, parse, replay, store put; per request",
		setupServeUpload},
	{"serve_warm", "request", "request (forwarded or local, LRU or store hit)", 999,
		"read side after warm restarts on stable addresses: store and LRU hits, local or one hop away, in the split ownership fixes; per request",
		setupServeWarm},
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sizing scales the inputs; the test smoke run shrinks everything.
type sizing struct {
	setupReps         int
	gridBenchmarks    int    // 0 = all thirteen
	traceFP, traceINT string // benchmarks the trace workloads record
	hotCells          int
	uploads           int // traces serve_upload sends per round
	warmKeys          int
	sampleCells       int // served cells checked against a direct run
}

var fullSize = sizing{setupReps: 3, traceFP: "tomcatv", traceINT: "espresso", hotCells: 64, uploads: uploadPrograms, warmKeys: 600, sampleCells: 8}

// env is what a workload's set-up sees.
type env struct {
	seed   int64
	budget time.Duration
	dir    string // scratch directory inside the checkout
	size   sizing
}

// phase is one timed stretch of a workload's operations.
type phase struct {
	lat       []time.Duration // one per successful operation
	rate      float64         // units of work per second
	attempted int
	failed    int
	problems  []string
}

// another reports whether a phase of long operations should start one
// more: always the first, then while one of median length still ends
// before the deadline, so a run ends close to its budget.
func (p *phase) another(deadline time.Time) bool {
	if p.attempted == 0 {
		return true
	}
	next := time.Duration(median(msAll(p.lat)) * float64(time.Millisecond))
	return time.Now().Add(next).Before(deadline)
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

type metrics map[string]float64

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("informbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+names())
		seed    = fs.Int64("seed", defaultSeed, "input seed")
		seconds = fs.Float64("seconds", 12, "measurement time in seconds")
		traced  = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		spans   = fs.String("spans", "", "with -trace 1, write the recorded spans here as JSON lines")
		workdir = fs.String("workdir", "", "parent of the scratch directory (empty = system temp)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "informbench: unknown workload %q (want one of %s)\n", *name, names())
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "informbench: -trace must be 0 or 1\n")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "informbench: -seconds must be positive\n")
		return 2
	}
	if *workdir != "" {
		if err := os.MkdirAll(*workdir, 0o755); err != nil {
			fmt.Fprintf(stderr, "informbench: %v\n", err)
			return 1
		}
	}
	dir, err := os.MkdirTemp(*workdir, "informbench-")
	if err != nil {
		fmt.Fprintf(stderr, "informbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), dir: dir, size: fullSize}
	res, err := execute(w, e, *traced == 1, *spans, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "informbench: %s: %v\n", w.name, err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "informbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func names() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// execute sets the workload up setupReps times, measures the last
// instance and assembles the result.
func execute(w workloadDef, e *env, traced bool, spansPath string, out io.Writer) (result, error) {
	fmt.Fprintf(out, "informbench %s: seed %d (default %d; %d is held out for claims), %.0fs, trace %t\n",
		w.name, e.seed, defaultSeed, heldOutSeed, e.budget.Seconds(), traced)
	var (
		inst   instance
		setups []float64
		err    error
	)
	for i := 0; i < e.size.setupReps; i++ {
		if inst != nil {
			inst.close()
			// Start each set-up from the same heap, so that set-up time
			// and peak RSS do not depend on when the collector ran.
			inst = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		inst, err = w.setup(e)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	fmt.Fprintf(out, "inputs: %s\n", inst.summary())

	// One untimed operation first, so that no phase pays for first-use
	// costs (heap growth, page faults) that users pay once.
	warm, err := inst.measure(time.Now(), nil)
	if err != nil {
		return result{}, fmt.Errorf("warm-up: %w", err)
	}

	m := metrics{}
	var ph phase
	if !traced {
		ph, err = inst.measure(time.Now().Add(e.budget), nil)
		if err != nil {
			return result{}, err
		}
		lat := msAll(ph.lat)
		tl, beyond := percentile(lat, w.tail)
		m["setup_s"] = median(setups)
		m["throughput_per_s"] = ph.rate
		m["p50_ms"] = median(lat)
		m["tail_ms"] = tl
		m["peak_rss_mb"] = peakRSSMB()
		note := ""
		if beyond < minBeyond {
			note = ", too few to resolve a tail"
		}
		fmt.Fprintf(out, "%d operations (%s): %s\ntail_ms is %s, %d samples beyond it%s; set-up runs %.3g s\n",
			len(lat), w.op, distribution(lat), levelName(w.tail), beyond, note, setups)
	} else {
		var plain phase
		plain, err = inst.measure(time.Now().Add(e.budget/2), nil)
		if err != nil {
			return result{}, err
		}
		tr := newTracer()
		ph, err = inst.measure(time.Now().Add(e.budget/2), tr)
		if err != nil {
			return result{}, err
		}
		ph.attempted += plain.attempted
		ph.failed += plain.failed
		ph.problems = append(plain.problems, ph.problems...)
		if err := inst.layers(tr, m); err != nil {
			return result{}, fmt.Errorf("per-layer measurement: %w", err)
		}
		if plain.rate > 0 {
			m["tracing_overhead_frac"] = 1 - ph.rate/plain.rate
		}
		spans := tr.snapshot()
		if err := checkSpans(spans); err != nil {
			ph.fail("spans: %v", err)
		}
		fmt.Fprintf(out, "%d spans recorded; untraced %.4g, traced %.4g %s/s\n", len(spans), plain.rate, ph.rate, w.unit)
		if spansPath != "" {
			if err := tr.write(spansPath); err != nil {
				return result{}, fmt.Errorf("write spans: %w", err)
			}
		}
	}
	ph.attempted += warm.attempted
	ph.failed += warm.failed
	ph.problems = append(warm.problems, ph.problems...)
	for _, p := range ph.problems {
		fmt.Fprintf(out, "FAILED: %s\n", p)
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   ph.failed == 0 && ph.attempted > 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = jsonMetric{Value: m[d.name], Unit: d.unit}
	}
	printMetrics(out, res.Metrics, w)
	return res, nil
}

func printMetrics(out io.Writer, ms map[string]jsonMetric, w workloadDef) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		unit := ms[k].Unit
		if k == "throughput_per_s" {
			unit = w.unit + "/s"
		}
		fmt.Fprintf(out, "  %-30s %16.6g %s\n", k, ms[k].Value, unit)
	}
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
