// Package experiments drives the paper's evaluation: the generic
// miss-handler overhead studies of §4.2 (Figures 2 and 3, the
// 100-instruction handler results, and the trap-as-branch vs
// trap-as-exception comparison) over the workload suite, and formats the
// results as the tables/series the paper reports. The coherence case
// study (Figure 4) lives in internal/coherence.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"informing/internal/core"
	"informing/internal/obs"
	"informing/internal/sched"
	"informing/internal/stats"
	"informing/internal/workload"
)

// PlanSpec pairs an instrumentation plan constructor with the machine
// scheme it requires.
type PlanSpec struct {
	Label  string
	Scheme core.Scheme
	Make   func() workload.Plan
}

// Figure2Plans returns the five bars of Figures 2 and 3: no informing
// (N), single and unique handlers with 1- and 10-instruction bodies.
func Figure2Plans() []PlanSpec {
	return []PlanSpec{
		{"N", core.Off, func() workload.Plan { return workload.NewPlanNone() }},
		{"S1", core.TrapBranch, func() workload.Plan { return workload.NewPlanSingle(1) }},
		{"U1", core.TrapBranch, func() workload.Plan { return workload.NewPlanUnique(1) }},
		{"S10", core.TrapBranch, func() workload.Plan { return workload.NewPlanSingle(10) }},
		{"U10", core.TrapBranch, func() workload.Plan { return workload.NewPlanUnique(10) }},
	}
}

// H100Plans returns the 100-instruction handler variants discussed in
// §4.2.2.
func H100Plans() []PlanSpec {
	return []PlanSpec{
		{"N", core.Off, func() workload.Plan { return workload.NewPlanNone() }},
		{"S100", core.TrapBranch, func() workload.Plan { return workload.NewPlanSingle(100) }},
		{"U100", core.TrapBranch, func() workload.Plan { return workload.NewPlanUnique(100) }},
	}
}

// SamplingPlans compares a full 100-instruction handler against sampled
// variants (§4.2.2: "optimizations such as sampling could be used to
// reduce the overhead").
func SamplingPlans() []PlanSpec {
	return []PlanSpec{
		{"N", core.Off, func() workload.Plan { return workload.NewPlanNone() }},
		{"S100", core.TrapBranch, func() workload.Plan { return workload.NewPlanSingle(100) }},
		{"SMP100/16", core.TrapBranch, func() workload.Plan { return workload.MustPlanSampled(100, 16) }},
		{"SMP100/64", core.TrapBranch, func() workload.Plan { return workload.MustPlanSampled(100, 64) }},
	}
}

// MotivationPlans reproduces the paper's §1 argument: per-reference miss
// detection via serializing hardware counters (the status quo the paper
// improves on) versus the condition-code check and the single-handler
// trap.
func MotivationPlans() []PlanSpec {
	return []PlanSpec{
		{"N", core.Off, func() workload.Plan { return workload.NewPlanNone() }},
		{"CNT", core.Off, func() workload.Plan { return workload.NewPlanCounter() }},
		{"CC1", core.CondCode, func() workload.Plan { return workload.NewPlanCondCode(1) }},
		{"S1", core.TrapBranch, func() workload.Plan { return workload.NewPlanSingle(1) }},
	}
}

// CondCodePlans compares the explicit condition-code check (§2.1) against
// the equivalent trap plans.
func CondCodePlans() []PlanSpec {
	return []PlanSpec{
		{"N", core.Off, func() workload.Plan { return workload.NewPlanNone() }},
		{"CC1", core.CondCode, func() workload.Plan { return workload.NewPlanCondCode(1) }},
		{"U1", core.TrapBranch, func() workload.Plan { return workload.NewPlanUnique(1) }},
		{"CC10", core.CondCode, func() workload.Plan { return workload.NewPlanCondCode(10) }},
		{"U10", core.TrapBranch, func() workload.Plan { return workload.NewPlanUnique(10) }},
	}
}

// Result is one benchmark × machine × plan measurement.
type Result struct {
	Benchmark string
	Machine   core.Machine
	Plan      string
	Run       stats.Run
	// Norm is the slot breakdown normalised to the same benchmark and
	// machine's "N" run (the paper's y-axis).
	Norm stats.Normalized
}

// Options controls experiment size and scheduling.
type Options struct {
	Scale    int64  // workload iteration multiplier (1 = paper-shaped default)
	MaxInsts uint64 // per-run dynamic instruction guard
	Machines []core.Machine

	// Ctx, when non-nil, cancels in-flight simulations on expiry or
	// interrupt; the experiment then returns the results completed so
	// far together with the error.
	Ctx context.Context

	// Workers bounds the worker pool that shards the (benchmark, machine,
	// plan) cells: <= 0 selects runtime.GOMAXPROCS(0), and 1 is the
	// sequential reference path (the CLIs' -j flag). Any value produces
	// bit-identical results — see internal/sched's determinism contract.
	Workers int

	// Policy selects the data-hierarchy replacement policy for every cell
	// ("" or "lru" = the built-in true-LRU path; see mem.PolicyNames).
	// Invalid names surface as the first cell's run error.
	Policy string

	// Baseline names the plan label every result is normalised against
	// (the figures' y-axis). Empty selects the spec labelled "N"; when no
	// such spec exists HandlerOverhead returns an error instead of
	// silently normalising against whatever spec came first, so sweeps
	// with unconventional plan lists (e.g. TrapModeComparison's
	// branch-vs-exception specs) must say which bar is the baseline.
	Baseline string

	// Obs, when non-nil, receives live metrics from every cell. obs.Sim's
	// counters and histograms are atomic, so the one registry is shared
	// across the worker pool; rates and distributions aggregate over the
	// whole sweep. Nil (the default) keeps the hot path allocation-free.
	Obs *obs.Sim

	// Trace, when non-nil, receives sampled TraceEvents from every cell
	// (TraceEvery selects the source-side 1-in-N sampling; 0 or 1 traces
	// every instruction). The callback must be goroutine-safe when
	// Workers != 1, as obs.JSONLSink's Emit is.
	Trace      func(stats.TraceEvent)
	TraceEvery uint64
}

// DefaultOptions returns full-size settings for both machines.
func DefaultOptions() Options {
	return Options{Scale: 1, MaxInsts: 100_000_000,
		Machines: []core.Machine{core.OutOfOrder, core.InOrder}}
}

// BaselineIndex resolves which spec a sweep normalises against. An
// explicit baseline must name one of the specs; otherwise the spec
// labelled "N" is chosen, and its absence is an error (see
// Options.Baseline). The serving layer's experiment endpoint resolves its
// baseline here too, so both normalise by one rule.
func BaselineIndex(specs []PlanSpec, baseline string) (int, error) {
	want := baseline
	if want == "" {
		want = "N"
	}
	for i, spec := range specs {
		if spec.Label == want {
			return i, nil
		}
	}
	if baseline == "" {
		return 0, fmt.Errorf("experiments: no %q plan among %s to normalise against; set Options.Baseline explicitly",
			want, planLabels(specs))
	}
	return 0, fmt.Errorf("experiments: baseline plan %q not among %s", baseline, planLabels(specs))
}

func planLabels(specs []PlanSpec) string {
	labels := make([]string, len(specs))
	for i, spec := range specs {
		labels[i] = spec.Label
	}
	return "[" + strings.Join(labels, " ") + "]"
}

// HandlerOverhead runs every benchmark under every plan on the selected
// machines, sharding the independent (benchmark, machine, plan) cells
// across an Options.Workers-bounded pool (internal/sched). Results come
// back in the deterministic benchmark → machine → plan order regardless
// of worker count; each Result's Norm is computed against the baseline
// plan's run (Options.Baseline, by default "N") after the parallel join,
// never racily inside workers. Workload programs are assembled once per
// (benchmark, plan) and shared across machines and workers.
//
// On error — including cancellation through opt.Ctx, which every
// worker's run governor polls — the contiguous prefix of results
// completed before the first failing cell is returned alongside it, so
// an interrupted sweep still yields a partial report.
func HandlerOverhead(bms []workload.Benchmark, specs []PlanSpec, opt Options) ([]Result, error) {
	baseIdx, err := BaselineIndex(specs, opt.Baseline)
	if err != nil {
		return nil, err
	}

	type cell struct {
		bm      workload.Benchmark
		machine core.Machine
		spec    PlanSpec
	}
	var cells []cell
	for _, bm := range bms {
		for _, machine := range opt.Machines {
			for _, spec := range specs {
				cells = append(cells, cell{bm: bm, machine: machine, spec: spec})
			}
		}
	}

	cache := newProgCache(opt.Scale)
	jobs := make([]sched.Job[Result], len(cells))
	for i, c := range cells {
		c := c
		jobs[i] = func(ctx context.Context) (Result, error) {
			prog, err := cache.get(c.bm, c.spec)
			if err != nil {
				return Result{}, fmt.Errorf("%s/%s: %w", c.bm.Name, c.spec.Label, err)
			}
			cfg := ConfigFor(c.machine, c.spec.Scheme).WithPolicy(opt.Policy).
				WithMaxInsts(opt.MaxInsts).WithContext(ctx)
			if opt.Obs != nil {
				cfg = cfg.WithObs(opt.Obs)
			}
			if opt.Trace != nil {
				cfg = cfg.WithTrace(opt.Trace).WithTraceEvery(opt.TraceEvery)
			}
			run, err := cfg.Run(prog)
			if err != nil {
				return Result{}, fmt.Errorf("%s/%s/%v: %w", c.bm.Name, c.spec.Label, c.machine, err)
			}
			return Result{
				Benchmark: c.bm.Name,
				Machine:   c.machine,
				Plan:      c.spec.Label,
				Run:       run,
			}, nil
		}
	}

	out, err := sched.Map(opt.Ctx, opt.Workers, jobs)
	Normalize(out, len(specs), baseIdx)
	return out, err
}

// Normalize sets each result's Norm after the join: results form
// (benchmark, machine) groups of group consecutive results, each scaled
// by the group's result at baseIdx. On a partial (errored) sweep the
// tail group may be truncated before its baseline; those results keep a
// zero Norm.
func Normalize(results []Result, group, baseIdx int) {
	for i := range results {
		base := i - i%group + baseIdx
		if base < len(results) {
			results[i].Norm = results[i].Run.NormalizeTo(results[base].Run)
		}
	}
}

// PrefetchPlans returns the §6 case-study bars: the baseline against
// stride-prefetch miss handlers reaching one and four 32-byte lines
// beyond the missing reference.
func PrefetchPlans() []PlanSpec {
	return []PlanSpec{
		{"N", core.Off, func() workload.Plan { return workload.NewPlanNone() }},
		{"PF32", core.TrapBranch, func() workload.Plan { return workload.NewPlanPrefetch(32) }},
		{"PF128", core.TrapBranch, func() workload.Plan { return workload.NewPlanPrefetch(128) }},
	}
}

// TrapModeComparison reproduces the §4.2.2 branch-vs-exception result:
// compress with single 1- and 10-instruction handlers on the out-of-order
// machine under both trap implementations. It returns the exception/branch
// execution-time ratios for each handler size.
func TrapModeComparison(opt Options) (map[string]float64, []Result, error) {
	bm, ok := workload.ByName("compress")
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown benchmark %q", "compress")
	}
	specs := []PlanSpec{
		{"S1/branch", core.TrapBranch, func() workload.Plan { return workload.NewPlanSingle(1) }},
		{"S1/exception", core.TrapException, func() workload.Plan { return workload.NewPlanSingle(1) }},
		{"S10/branch", core.TrapBranch, func() workload.Plan { return workload.NewPlanSingle(10) }},
		{"S10/exception", core.TrapException, func() workload.Plan { return workload.NewPlanSingle(10) }},
	}
	o := opt
	o.Machines = []core.Machine{core.OutOfOrder}
	// There is no "N" bar in this spec list; the comparison's Norm column
	// is deliberately relative to the branch-mode 1-instruction run.
	o.Baseline = "S1/branch"
	res, err := HandlerOverhead([]workload.Benchmark{bm}, specs, o)
	if err != nil {
		return nil, res, err
	}
	byPlan := map[string]stats.Run{}
	for _, r := range res {
		byPlan[r.Plan] = r.Run
	}
	ratios := map[string]float64{}
	for _, k := range []string{"S1", "S10"} {
		br := byPlan[k+"/branch"]
		ex := byPlan[k+"/exception"]
		if br.Cycles > 0 {
			ratios[k] = float64(ex.Cycles) / float64(br.Cycles)
		}
	}
	return ratios, res, nil
}
