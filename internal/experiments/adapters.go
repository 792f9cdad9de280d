package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"informing/internal/core"
	"informing/internal/workload"
)

// This file is the request→cell adapter layer used by internal/serve (and
// cmd/handlerbench): it resolves the wire-level names a client sends —
// plan labels like "S10" or "CC1", experiment names like "fig3" — into
// the PlanSpec / benchmark sets the harness executes. Keeping the parsing
// here means the serving layer and the CLIs agree on one vocabulary.

// maxHandlerK bounds the handler body size a parsed label may request, so
// a remote client cannot ask the assembler for a multi-megabyte epilogue.
// The paper's largest handler is 100 instructions.
const maxHandlerK = 1000

// maxPrefetchDist bounds the byte displacement a PF<d> label may request
// (the useful range is a handful of cache lines; the bound just keeps
// remote input sane).
const maxPrefetchDist = 1 << 16

// PlanByLabel resolves a report-style plan label into the PlanSpec that
// produces it, accepting exactly the labels the experiment tables print:
//
//	N                the uninstrumented baseline
//	CNT              the §1 serializing miss-counter strawman
//	S<k>, U<k>       single/unique K-instruction trap handlers
//	CC<k>            the explicit condition-code check
//	SMP<k>/<p>       sampled single handler (p a power of two)
//	PF<d>            per-site stride-prefetch handler, d bytes ahead (§6)
//	S<k>/exception   trap delivered as a graduation exception (§3.2);
//	                 the "/branch" suffix is accepted and canonicalised
//	                 away, branch delivery being the default
//
// The returned spec's Label is the canonical form of the input ("S1/branch"
// canonicalises to "S1"); use it as the cache-key component.
func PlanByLabel(label string) (PlanSpec, error) {
	bad := func() (PlanSpec, error) {
		return PlanSpec{}, fmt.Errorf("experiments: unknown plan label %q", label)
	}
	switch label {
	case "N":
		return PlanSpec{"N", core.Off, func() workload.Plan { return workload.NewPlanNone() }}, nil
	case "CNT":
		return PlanSpec{"CNT", core.Off, func() workload.Plan { return workload.NewPlanCounter() }}, nil
	}

	if rest, ok := strings.CutPrefix(label, "SMP"); ok {
		ks, ps, ok := strings.Cut(rest, "/")
		if !ok {
			return bad()
		}
		k, err := parseK(ks)
		if err != nil {
			return bad()
		}
		p, err := strconv.Atoi(ps)
		if err != nil {
			return bad()
		}
		plan, err := workload.NewPlanSampled(k, p)
		if err != nil {
			return PlanSpec{}, fmt.Errorf("experiments: plan label %q: %w", label, err)
		}
		return PlanSpec{plan.Name(), core.TrapBranch,
			func() workload.Plan { return workload.MustPlanSampled(k, p) }}, nil
	}

	if rest, ok := strings.CutPrefix(label, "PF"); ok {
		d, err := strconv.Atoi(rest)
		if err != nil || d < 1 || d > maxPrefetchDist {
			return bad()
		}
		return PlanSpec{fmt.Sprintf("PF%d", d), core.TrapBranch,
			func() workload.Plan { return workload.NewPlanPrefetch(int64(d)) }}, nil
	}

	if rest, ok := strings.CutPrefix(label, "CC"); ok {
		k, err := parseK(rest)
		if err != nil {
			return bad()
		}
		return PlanSpec{fmt.Sprintf("CC%d", k), core.CondCode,
			func() workload.Plan { return workload.NewPlanCondCode(k) }}, nil
	}

	// S<k> and U<k>, with an optional trap-delivery suffix.
	var unique bool
	rest := label
	switch {
	case strings.HasPrefix(label, "S"):
		rest = label[1:]
	case strings.HasPrefix(label, "U"):
		unique, rest = true, label[1:]
	default:
		return bad()
	}
	scheme := core.TrapBranch
	suffix := ""
	if ks, mode, ok := strings.Cut(rest, "/"); ok {
		switch mode {
		case "branch": // canonical default; suffix dropped
		case "exception":
			scheme, suffix = core.TrapException, "/exception"
		default:
			return bad()
		}
		rest = ks
	}
	k, err := parseK(rest)
	if err != nil {
		return bad()
	}
	if unique {
		return PlanSpec{fmt.Sprintf("U%d%s", k, suffix), scheme,
			func() workload.Plan { return workload.NewPlanUnique(k) }}, nil
	}
	return PlanSpec{fmt.Sprintf("S%d%s", k, suffix), scheme,
		func() workload.Plan { return workload.NewPlanSingle(k) }}, nil
}

func parseK(s string) (int, error) {
	k, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if k < 1 || k > maxHandlerK {
		return 0, fmt.Errorf("handler size %d outside [1,%d]", k, maxHandlerK)
	}
	return k, nil
}

// ConfigFor is the machine configuration HandlerOverhead runs each cell
// under (R10000 for out-of-order, Alpha21164 for in-order). The serving
// layer calls it too, so a served cell runs under exactly the
// configuration the harness would use.
func ConfigFor(machine core.Machine, scheme core.Scheme) core.Config {
	if machine == core.InOrder {
		return core.Alpha21164(scheme)
	}
	return core.R10000(scheme)
}

// NamedExperiment is one of the table-shaped §4.2 experiments, resolved by
// Named: the benchmark set, the plan bars, the figure title the CLI prints,
// and whether the CLI follows the figure with the overhead summary.
type NamedExperiment struct {
	Name       string
	Title      string
	Benchmarks []workload.Benchmark
	Specs      []PlanSpec
	// Baseline is the Options.Baseline the experiment uses ("" = the "N"
	// bar).
	Baseline string
	// Summary reports whether the CLI appends FormatOverheadSummary after
	// the figure (a blank line between the two).
	Summary bool
}

// Named resolves the table-shaped experiments of cmd/handlerbench by name:
// fig2, fig3, h100, condcode, sampling, counters. (trapmode is not table
// shaped — it reports execution-time ratios — and is not served.) The
// titles here are the single source of truth for the CLI's output, so
// tables served by informd are byte-identical to the CLI's.
func Named(name string) (NamedExperiment, error) {
	mustBench := func(names ...string) []workload.Benchmark {
		bms := make([]workload.Benchmark, 0, len(names))
		for _, n := range names {
			bm, ok := workload.ByName(n)
			if !ok {
				// The name lists below are static; an unknown name is a
				// programming error, caught by TestNamedExperiments.
				panic(fmt.Sprintf("experiments: unknown benchmark %q", n))
			}
			bms = append(bms, bm)
		}
		return bms
	}
	switch name {
	case "fig2":
		return NamedExperiment{
			Name:       name,
			Title:      "Figure 2: performance of generic miss handlers (1 and 10 instructions)",
			Benchmarks: workload.Fig2Set(),
			Specs:      Figure2Plans(),
			Summary:    true,
		}, nil
	case "fig3":
		return NamedExperiment{
			Name:       name,
			Title:      "Figure 3: su2cor with generic miss handlers",
			Benchmarks: mustBench("su2cor"),
			Specs:      Figure2Plans(),
		}, nil
	case "h100":
		return NamedExperiment{
			Name:       name,
			Title:      "100-instruction handlers (paper: compress ~6x, su2cor ~7x, ora ~2%)",
			Benchmarks: mustBench("compress", "su2cor", "ora"),
			Specs:      H100Plans(),
		}, nil
	case "condcode":
		return NamedExperiment{
			Name:       name,
			Title:      "Condition-code checks (CC) vs unique-handler traps (U)",
			Benchmarks: workload.Fig2Set(),
			Specs:      CondCodePlans(),
			Summary:    true,
		}, nil
	case "sampling":
		return NamedExperiment{
			Name:       name,
			Title:      "Sampled 100-instruction handlers (§4.2.2 mitigation)",
			Benchmarks: mustBench("compress", "su2cor", "tomcatv"),
			Specs:      SamplingPlans(),
		}, nil
	case "counters":
		return NamedExperiment{
			Name:       name,
			Title:      "§1 motivation: serializing miss counters (CNT) vs informing mechanisms",
			Benchmarks: mustBench("compress", "espresso", "alvinn", "tomcatv"),
			Specs:      MotivationPlans(),
		}, nil
	case "prefetch":
		return NamedExperiment{
			Name:       name,
			Title:      "§6 case study: stride prefetching written as a miss handler",
			Benchmarks: mustBench("compress", "espresso", "tomcatv"),
			Specs:      PrefetchPlans(),
		}, nil
	}
	return NamedExperiment{}, fmt.Errorf("experiments: unknown experiment %q", name)
}
