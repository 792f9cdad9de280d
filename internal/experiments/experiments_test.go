package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"informing/internal/core"
	"informing/internal/govern"
	"informing/internal/workload"
)

func tinyOptions() Options {
	return Options{Scale: 1, MaxInsts: 50_000_000,
		Machines: []core.Machine{core.OutOfOrder, core.InOrder}}
}

func pickBench(t *testing.T, name string) []workload.Benchmark {
	t.Helper()
	bm, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %s", name)
	}
	return []workload.Benchmark{bm}
}

// runNamed runs the Named experiment name under tinyOptions.
func runNamed(t *testing.T, name string) []Result {
	t.Helper()
	ne, err := Named(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := HandlerOverhead(ne.Benchmarks, ne.Specs, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHandlerOverheadBaselineIsOne(t *testing.T) {
	res, err := HandlerOverhead(pickBench(t, "espresso"), Figure2Plans(), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 { // 5 plans x 2 machines
		t.Fatalf("%d results", len(res))
	}
	for _, r := range res {
		if r.Plan == "N" {
			if tot := r.Norm.Total(); tot < 0.999 || tot > 1.001 {
				t.Errorf("%v baseline normalises to %.3f", r.Machine, tot)
			}
		} else if r.Norm.Total() < 0.999 {
			t.Errorf("%v/%s faster than baseline: %.3f", r.Machine, r.Plan, r.Norm.Total())
		}
	}
}

func TestOverheadOrderingS1LeqS10(t *testing.T) {
	// A longer handler can never be cheaper than a shorter one for the
	// same plan shape on the in-order machine (no overlap there).
	res, err := HandlerOverhead(pickBench(t, "tomcatv"), Figure2Plans(),
		Options{Scale: 1, MaxInsts: 50_000_000, Machines: []core.Machine{core.InOrder}})
	if err != nil {
		t.Fatal(err)
	}
	byPlan := map[string]float64{}
	for _, r := range res {
		byPlan[r.Plan] = r.Norm.Total()
	}
	if byPlan["S10"] < byPlan["S1"] {
		t.Errorf("S10 (%.3f) cheaper than S1 (%.3f)", byPlan["S10"], byPlan["S1"])
	}
	if byPlan["U10"] < byPlan["U1"] {
		t.Errorf("U10 (%.3f) cheaper than U1 (%.3f)", byPlan["U10"], byPlan["U1"])
	}
}

func TestFigure3Su2corShape(t *testing.T) {
	res := runNamed(t, "fig3")
	var ooS10, ioS10 float64
	for _, r := range res {
		if r.Plan == "S10" {
			if r.Machine == core.OutOfOrder {
				ooS10 = r.Norm.Total()
			} else {
				ioS10 = r.Norm.Total()
			}
		}
	}
	// The paper's Figure 3: su2cor's 10-instruction handler roughly
	// triples in-order execution time while the out-of-order machine
	// stays under ~1.6x.
	if ioS10 < 1.8 {
		t.Errorf("in-order su2cor S10 overhead %.2f, want >= 1.8 (paper ~3x)", ioS10)
	}
	if ooS10 > 1.7 {
		t.Errorf("out-of-order su2cor S10 overhead %.2f, want < 1.7", ooS10)
	}
	if ooS10 >= ioS10 {
		t.Error("out-of-order machine should hide more handler cost than in-order")
	}
}

func TestTrapModeComparisonDirection(t *testing.T) {
	ratios, res, err := TrapModeComparison(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	for _, k := range []string{"S1", "S10"} {
		if ratios[k] <= 1.0 {
			t.Errorf("%s: exception/branch ratio %.3f, want > 1 (paper: +7-9%%)", k, ratios[k])
		}
		if ratios[k] > 3.0 {
			t.Errorf("%s: exception/branch ratio %.3f implausibly large", k, ratios[k])
		}
	}
}

func TestH100KnownPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	res := runNamed(t, "h100")
	get := func(bench string, machine core.Machine, plan string) float64 {
		for _, r := range res {
			if r.Benchmark == bench && r.Machine == machine && r.Plan == plan {
				return r.Norm.Total()
			}
		}
		t.Fatalf("missing %s/%v/%s", bench, machine, plan)
		return 0
	}
	// The paper: 100-instruction handlers slow compress ~6x and su2cor
	// ~7x, while ora stays near 1.0 (~2% overhead). Shape check: the
	// miss-heavy benchmarks blow up, ora does not.
	if v := get("ora", core.OutOfOrder, "S100"); v > 1.15 {
		t.Errorf("ora with 100-instr handlers: %.2fx, want ~1.0", v)
	}
	if v := get("compress", core.OutOfOrder, "S100"); v < 2.0 {
		t.Errorf("compress with 100-instr handlers: %.2fx, want large", v)
	}
	if v := get("su2cor", core.InOrder, "S100"); v < 3.0 {
		t.Errorf("su2cor in-order with 100-instr handlers: %.2fx, want very large", v)
	}
}

func TestCondCodeCostsLikeUniqueTrap(t *testing.T) {
	// §2 of the paper: the condition-code scheme performs like the trap
	// scheme with a one-instruction-per-reference cost. Compare CC
	// against U on one benchmark: within a loose band.
	res, err := HandlerOverhead(pickBench(t, "alvinn"), CondCodePlans(),
		Options{Scale: 1, MaxInsts: 50_000_000, Machines: []core.Machine{core.OutOfOrder}})
	if err != nil {
		t.Fatal(err)
	}
	byPlan := map[string]float64{}
	for _, r := range res {
		byPlan[r.Plan] = r.Norm.Total()
	}
	for _, k := range []string{"1", "10"} {
		cc, u := byPlan["CC"+k], byPlan["U"+k]
		if cc == 0 || u == 0 {
			t.Fatalf("missing plan results: %v", byPlan)
		}
		if cc/u > 1.35 || u/cc > 1.35 {
			t.Errorf("CC%s (%.3f) and U%s (%.3f) should perform similarly", k, cc, k, u)
		}
	}
}

func TestReportFormatting(t *testing.T) {
	res, err := HandlerOverhead(pickBench(t, "espresso"), Figure2Plans(), tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	fig := FormatFigure("Test Figure", res)
	for _, want := range []string{"Test Figure", "out-of-order machine", "in-order machine", "espresso", "S10"} {
		if !strings.Contains(fig, want) {
			t.Errorf("figure missing %q", want)
		}
	}
	sum := FormatOverheadSummary(res)
	if !strings.Contains(sum, "mean") || strings.Contains(sum, "N ") && false {
		t.Errorf("summary malformed:\n%s", sum)
	}
	raw := FormatRuns(res)
	if !strings.Contains(raw, "cycles=") {
		t.Error("raw dump missing stats")
	}
}

// TestParallelMatchesSequential is the parallel runner's differential
// gate: a reduced Figure-2 sweep must produce identical []Result — order,
// cycles, Norm, every counter — at every worker count, and the formatted
// tables must be byte-identical. Run it under -race to also shake out
// data races in the pool and the shared program cache.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker-count differential sweep is heavy")
	}
	var bms []workload.Benchmark
	for _, name := range []string{"espresso", "alvinn", "ora"} {
		bms = append(bms, pickBench(t, name)[0])
	}
	seqOpt := tinyOptions()
	seqOpt.Workers = 1
	seq, err := HandlerOverhead(bms, Figure2Plans(), seqOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(bms)*2*len(Figure2Plans()) {
		t.Fatalf("sequential sweep returned %d results", len(seq))
	}
	for _, workers := range []int{0, 2, 8} {
		parOpt := tinyOptions()
		parOpt.Workers = workers
		par, err := HandlerOverhead(bms, Figure2Plans(), parOpt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(seq, par) {
			for i := range seq {
				if !reflect.DeepEqual(seq[i], par[i]) {
					t.Fatalf("workers=%d: result %d differs:\nseq: %+v\npar: %+v",
						workers, i, seq[i], par[i])
				}
			}
			t.Fatalf("workers=%d: results differ", workers)
		}
		if FormatFigure("t", seq) != FormatFigure("t", par) {
			t.Errorf("workers=%d: formatted tables differ", workers)
		}
	}
}

// TestHandlerOverheadCancelledPartial shows the pool surfacing partial
// results with govern.ErrCanceled: a trip-wire plan cancels the sweep's
// context partway through, and the completed prefix still comes back.
func TestHandlerOverheadCancelledPartial(t *testing.T) {
	makeSpecs := func(cancel context.CancelFunc) []PlanSpec {
		specs := Figure2Plans()[:3] // N, S1, U1
		tripped := specs[2].Make
		specs[2].Make = func() workload.Plan {
			cancel() // the "Ctrl-C" arrives while cell 2 is being built
			return tripped()
		}
		return specs
	}

	// Sequential path: cells run in order, so exactly the two cells
	// before the trip-wire complete.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{Scale: 1, MaxInsts: 50_000_000,
		Machines: []core.Machine{core.OutOfOrder}, Ctx: ctx, Workers: 1}
	res, err := HandlerOverhead(pickBench(t, "espresso"), makeSpecs(cancel), opt)
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("sequential: error %v does not wrap govern.ErrCanceled", err)
	}
	if len(res) != 2 || res[0].Plan != "N" || res[1].Plan != "S1" {
		t.Fatalf("sequential partial results %+v, want the N and S1 cells", res)
	}

	// Parallel path: in-flight earlier cells may also be cancelled, but
	// whatever comes back must be a prefix of the deterministic order and
	// the error must still wrap govern.ErrCanceled.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	opt.Ctx = ctx2
	opt.Workers = 4
	res, err = HandlerOverhead(pickBench(t, "espresso"), makeSpecs(cancel2), opt)
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("parallel: error %v does not wrap govern.ErrCanceled", err)
	}
	if len(res) > 2 {
		t.Fatalf("parallel returned %d results past the cancellation point", len(res))
	}
	for i, want := range []string{"N", "S1"}[:len(res)] {
		if res[i].Plan != want {
			t.Errorf("parallel partial result %d is %s, want %s", i, res[i].Plan, want)
		}
	}
}

// TestBaselineExplicit pins the satellite bugfix: sweeps without an "N"
// plan must either name their baseline or fail loudly, never silently
// normalise against whatever spec came first.
func TestBaselineExplicit(t *testing.T) {
	noN := []PlanSpec{
		{"S1", core.TrapBranch, func() workload.Plan { return workload.NewPlanSingle(1) }},
		{"S10", core.TrapBranch, func() workload.Plan { return workload.NewPlanSingle(10) }},
	}
	opt := Options{Scale: 1, MaxInsts: 50_000_000, Machines: []core.Machine{core.OutOfOrder}}

	if _, err := HandlerOverhead(pickBench(t, "espresso"), noN, opt); err == nil ||
		!strings.Contains(err.Error(), "Options.Baseline") {
		t.Errorf("missing-N sweep did not demand an explicit baseline: %v", err)
	}

	opt.Baseline = "S99"
	if _, err := HandlerOverhead(pickBench(t, "espresso"), noN, opt); err == nil ||
		!strings.Contains(err.Error(), "S99") {
		t.Errorf("unknown baseline not rejected: %v", err)
	}

	opt.Baseline = "S1"
	res, err := HandlerOverhead(pickBench(t, "espresso"), noN, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Plan == "S1" {
			if tot := r.Norm.Total(); tot < 0.999 || tot > 1.001 {
				t.Errorf("explicit baseline normalises to %.3f, want 1.0", tot)
			}
		}
	}
}

// TestProgCacheShares verifies the workload cache hands every machine the
// same assembled program for a given (benchmark, plan) cell.
func TestProgCacheShares(t *testing.T) {
	bm := pickBench(t, "espresso")[0]
	specs := Figure2Plans()
	cache := newProgCache(1)
	p1, err := cache.get(bm, specs[1])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cache.get(bm, specs[1])
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same (benchmark, plan) built twice")
	}
	p3, err := cache.get(bm, specs[2])
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("distinct plans share a program")
	}
}

// TestCountersMotivation pins the paper's §1 argument: on the out-of-order
// machine, per-reference monitoring through serializing miss counters is
// dramatically slower than either informing mechanism.
func TestCountersMotivation(t *testing.T) {
	res, err := HandlerOverhead(pickBench(t, "alvinn"), MotivationPlans(),
		Options{Scale: 1, MaxInsts: 50_000_000, Machines: []core.Machine{core.OutOfOrder}})
	if err != nil {
		t.Fatal(err)
	}
	byPlan := map[string]float64{}
	for _, r := range res {
		byPlan[r.Plan] = r.Norm.Total()
	}
	if byPlan["CNT"] < 2.0 {
		t.Errorf("counter strawman only %.2fx on out-of-order; serialization not modelled?", byPlan["CNT"])
	}
	for _, k := range []string{"CC1", "S1"} {
		if byPlan[k] >= byPlan["CNT"]/2 {
			t.Errorf("%s (%.2fx) not clearly cheaper than counters (%.2fx)", k, byPlan[k], byPlan["CNT"])
		}
	}
}
