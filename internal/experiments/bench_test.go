package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"informing/internal/core"
	"informing/internal/mem"
	"informing/internal/obs"
	"informing/internal/trace"
	"informing/internal/workload"
)

// sweepMachines are the two recordings informbench's trace_sweep workload
// replays: a miss-heavy FP benchmark in order and a hit-heavy INT
// benchmark out of order, both under the 1-instruction single-handler
// plan (S1).
var sweepMachines = []struct {
	bench   string
	machine core.Machine
	name    string
}{
	{"tomcatv", core.InOrder, "tomcatv/inorder/S1"},
	{"espresso", core.OutOfOrder, "espresso/ooo/S1"},
}

// sweepSpecs is informbench's trace_sweep spec list for a recording
// geometry: the five TraceGeometries under each replacement policy.
func sweepSpecs(base mem.HierConfig) []GeometrySpec {
	var specs []GeometrySpec
	for _, pol := range mem.PolicyNames() {
		for _, g := range TraceGeometries(base) {
			g.Label += "/" + pol
			g.Hier.L1.Policy, g.Hier.L2.Policy = pol, pol
			specs = append(specs, g)
		}
	}
	return specs
}

type sweepTrace struct {
	name  string
	data  *trace.Data
	specs []GeometrySpec
}

// The recorded traces, recorded once per benchmark process.
var (
	sweepOnce    sync.Once
	sweepRecords []sweepTrace
	sweepErr     error
)

func sweepTraces(b *testing.B) []sweepTrace {
	sweepOnce.Do(func() { sweepRecords, sweepErr = recordSweepTraces() })
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepRecords
}

func recordSweepTraces() ([]sweepTrace, error) {
	spec, err := PlanByLabel("S1")
	if err != nil {
		return nil, err
	}
	var out []sweepTrace
	for _, m := range sweepMachines {
		bm, ok := workload.ByName(m.bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %s", m.bench)
		}
		prog, err := workload.Build(bm, spec.Make(), 1)
		if err != nil {
			return nil, err
		}
		cfg := ConfigFor(m.machine, spec.Scheme).WithMaxInsts(100_000_000)
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf, 1)
		if _, err := cfg.WithTrace(sink.Emit).Run(prog); err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		if err := sink.Close(); err != nil {
			return nil, err
		}
		d, err := trace.Load(&buf, trace.ReaderConfig{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		out = append(out, sweepTrace{m.name, d, sweepSpecs(cfg.HierConfig())})
	}
	return out, nil
}

// BenchmarkTraceSweep is informbench's trace_sweep on one worker: each
// recorded trace replayed under its 20 specs, hierarchy construction
// included, as a user of TraceSweep pays it.
func BenchmarkTraceSweep(b *testing.B) {
	for _, tr := range sweepTraces(b) {
		b.Run(tr.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TraceSweep(tr.data, tr.specs, Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
			refs := b.N * len(tr.specs) * len(tr.data.Refs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(refs), "ns/ref")
		})
	}
}

// BenchmarkNewHierarchy is the construction cost a replay of each spec
// of that sweep pays once per thread: one op builds the hierarchies of
// all 20 specs of a recording geometry (the sweep itself builds one per
// group of specs sharing an L1, plus one L2 per further L2 geometry).
// A cache allocates the storage of a set when the set is first filled,
// so construction allocates only the chunk directories and the
// taxonomy's small starting tables: tens of KB per hierarchy, not the
// megabytes of its capacity (B/op divided by 20).
func BenchmarkNewHierarchy(b *testing.B) {
	for _, m := range sweepMachines {
		specs := sweepSpecs(ConfigFor(m.machine, core.TrapBranch).HierConfig())
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range specs {
					if _, err := mem.NewHierarchy(s.Hier); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(specs)), "ns/hier")
		})
	}
}
