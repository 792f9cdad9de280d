package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"informing/internal/mem"
	"informing/internal/sched"
	"informing/internal/trace"
)

// GeometrySpec is one cache geometry a recorded trace is replayed
// through in a TraceSweep.
type GeometrySpec struct {
	Label string
	Hier  mem.HierConfig
}

// TraceGeometries returns the default geometry-sensitivity sweep: the
// paper's Table 1 hierarchy (the recording geometry when the trace came
// from a stock informsim run) plus halved/doubled L1 capacity, a
// direct-mapped L1, and a halved L2 — the classic questions a captured
// trace answers without re-running the program.
func TraceGeometries(base mem.HierConfig) []GeometrySpec {
	half, dbl, dm, l2half := base, base, base, base
	half.L1.SizeBytes = base.L1.SizeBytes / 2
	dbl.L1.SizeBytes = base.L1.SizeBytes * 2
	dm.L1.Assoc = 1
	l2half.L2.SizeBytes = base.L2.SizeBytes / 2
	return []GeometrySpec{
		{"base", base},
		{"L1/2", half},
		{"L1x2", dbl},
		{"L1dm", dm},
		{"L2/2", l2half},
	}
}

// TraceResult is one geometry's replay of the shared trace.
type TraceResult struct {
	Label  string
	Hier   mem.HierConfig
	Replay trace.ReplayResult
}

// L1MissRate returns L1 misses per reference, or 0 on an empty trace.
func (r TraceResult) L1MissRate() float64 {
	if r.Replay.Total.Refs == 0 {
		return 0
	}
	return float64(r.Replay.Total.L1Misses) / float64(r.Replay.Total.Refs)
}

// L2MissRate returns L2 misses per L1 miss, or 0 when L1 never missed.
func (r TraceResult) L2MissRate() float64 {
	if r.Replay.Total.L1Misses == 0 {
		return 0
	}
	return float64(r.Replay.Total.L2Misses) / float64(r.Replay.Total.L1Misses)
}

// TraceSweep replays one loaded trace through every geometry. Specs that
// share an L1 configuration form one group, in first-appearance order,
// and each group is one trace.ReplayShared pass: the L1 runs once and
// every distinct L2 in the group gets its miss stream (specs whose whole
// HierConfig is identical share one L2 and one result). A spec whose L2
// configuration is invalid replays alone, so its error stays its own.
// The groups are sharded across an Options.Workers-bounded pool with the
// same determinism contract as HandlerOverhead: results arrive in spec
// order, each exactly what trace.ReplayData returns for that spec, and
// bit-identical at any worker count (trace.Data is never mutated, so
// sharing it across workers is safe). Only Workers and Ctx are consulted
// from opt. On error the completed prefix is returned with the error of
// the lowest-index failing spec.
func TraceSweep(d *trace.Data, specs []GeometrySpec, opt Options) ([]TraceResult, error) {
	type group struct {
		hiers   []mem.HierConfig // distinct, in first-appearance order
		members []int            // spec indices, ascending
		lanes   []int            // per member, its index in hiers
	}
	var groups []*group
	byL1 := map[mem.CacheConfig]*group{}
	for i, spec := range specs {
		shared := spec.Hier.L2.Validate() == nil
		g := byL1[spec.Hier.L1]
		if g == nil || !shared {
			g = &group{}
			groups = append(groups, g)
			if shared {
				byL1[spec.Hier.L1] = g
			}
		}
		lane := slices.Index(g.hiers, spec.Hier)
		if lane < 0 {
			lane = len(g.hiers)
			g.hiers = append(g.hiers, spec.Hier)
		}
		g.members = append(g.members, i)
		g.lanes = append(g.lanes, lane)
	}
	jobs := make([]sched.Job[[]*trace.ReplayResult], len(groups))
	for k, g := range groups {
		jobs[k] = func(ctx context.Context) ([]*trace.ReplayResult, error) {
			res, err := trace.ReplayShared(d, g.hiers, trace.ReplayConfig{Ctx: ctx})
			if err != nil {
				return nil, fmt.Errorf("replay %s: %w", specs[g.members[0]].Label, err)
			}
			return res, nil
		}
	}
	done, err := sched.Map(opt.Ctx, opt.Workers, jobs)
	out := make([]TraceResult, len(specs))
	for k, res := range done {
		g := groups[k]
		taken := make([]bool, len(g.hiers))
		for m, i := range g.members {
			r := *res[g.lanes[m]]
			if taken[g.lanes[m]] {
				r.Segments = slices.Clone(r.Segments)
			}
			taken[g.lanes[m]] = true
			out[i] = TraceResult{Label: specs[i].Label, Hier: specs[i].Hier, Replay: r}
		}
	}
	if err != nil {
		// Every spec below the failing group's first belongs to an
		// earlier group, and those all completed.
		first := groups[len(done)].members[0]
		return out[:first:first], err
	}
	return out, nil
}

// FormatTraceSweep renders a geometry sweep as a text table: one row per
// geometry, with absolute counters, miss rates, and the per-event level
// agreement against the recording run (drift > 0 means the replay
// geometry no longer matches what the recorded pipeline saw — the whole
// point of the sweep for every row but the base one).
func FormatTraceSweep(title string, results []TraceResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	fmt.Fprintf(&sb, "%-6s %-22s %10s %10s %10s %8s %8s %10s\n",
		"geom", "L1/L2 (B,line,assoc)", "refs", "l1miss", "l2miss", "l1rate", "l2rate", "drift")
	for _, r := range results {
		geom := fmt.Sprintf("%d,%d,%d/%d,%d,%d",
			r.Hier.L1.SizeBytes, r.Hier.L1.LineBytes, r.Hier.L1.Assoc,
			r.Hier.L2.SizeBytes, r.Hier.L2.LineBytes, r.Hier.L2.Assoc)
		t := r.Replay.Total
		fmt.Fprintf(&sb, "%-6s %-22s %10d %10d %10d %8.4f %8.4f %10d\n",
			r.Label, geom, t.Refs, t.L1Misses, t.L2Misses,
			r.L1MissRate(), r.L2MissRate(), t.LevelMismatches)
	}
	return sb.String()
}
