package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"informing/internal/mem"
	"informing/internal/trace"
)

func syntheticTrace(t *testing.T, events int) *trace.Data {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	var sb strings.Builder
	for i := 0; i < events; i++ {
		if rng.Intn(4) == 0 { // non-memory filler
			fmt.Fprintf(&sb, `{"seq":%d,"pc":"0x%x","disasm":"add","fetch":%d,"issue":%d,"complete":%d,"graduate":%d,"level":0,"trap":false}`+"\n",
				i, 0x1000+4*i, i, i+1, i+2, i+3)
			continue
		}
		addr := uint64(rng.Intn(512)) * 32
		kind := "load"
		if rng.Intn(4) == 0 {
			kind = "store"
		}
		fmt.Fprintf(&sb, `{"seq":%d,"pc":"0x%x","disasm":"ld","fetch":%d,"issue":%d,"complete":%d,"graduate":%d,"level":%d,"addr":"0x%x","kind":%q,"trap":false}`+"\n",
			i, 0x1000+4*i, i, i+1, i+2, i+3, 1+rng.Intn(3), addr, kind)
	}
	d, err := trace.Load(strings.NewReader(sb.String()), trace.ReaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sweepBase() mem.HierConfig {
	return mem.HierConfig{
		L1: mem.CacheConfig{SizeBytes: 1024, LineBytes: 32, Assoc: 2},
		L2: mem.CacheConfig{SizeBytes: 4096, LineBytes: 32, Assoc: 4},
	}
}

// The -j determinism contract extends to trace sweeps: any worker count
// must produce byte-identical tables over the shared loaded trace.
func TestTraceSweepParallelParity(t *testing.T) {
	d := syntheticTrace(t, 4000)
	specs := TraceGeometries(sweepBase())

	seq, err := TraceSweep(d, specs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := TraceSweep(d, specs, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("-j %d results differ from -j 1", workers)
		}
		if FormatTraceSweep("t", seq) != FormatTraceSweep("t", par) {
			t.Fatalf("-j %d table differs from -j 1", workers)
		}
	}
}

// Shrinking a cache can only hurt: the sweep's halved-L1 and halved-L2
// rows must miss at least as often as the base geometry, and the base
// row must replay the recording geometry's levels with zero drift when
// the trace was recorded through it.
func TestTraceSweepGeometrySensitivity(t *testing.T) {
	// Record the synthetic trace levels through the base geometry so the
	// base row reconciles exactly.
	base := sweepBase()
	hier, err := mem.NewHierarchy(base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	for i := 0; i < 6000; i++ {
		addr := uint64(rng.Intn(256)) * 32
		store := rng.Intn(5) == 0
		level := hier.ProbeData(addr, store)
		kind := "load"
		if store {
			kind = "store"
		}
		fmt.Fprintf(&sb, `{"seq":%d,"pc":"0x0","disasm":"ld","fetch":0,"issue":1,"complete":2,"graduate":3,"level":%d,"addr":"0x%x","kind":%q,"trap":false}`+"\n",
			i, level, addr, kind)
	}
	d, err := trace.Load(strings.NewReader(sb.String()), trace.ReaderConfig{})
	if err != nil {
		t.Fatal(err)
	}

	res, err := TraceSweep(d, TraceGeometries(base), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]TraceResult{}
	for _, r := range res {
		byLabel[r.Label] = r
	}
	if got := byLabel["base"].Replay.Total.LevelMismatches; got != 0 {
		t.Errorf("base geometry drifted %d events from the recording", got)
	}
	if byLabel["L1/2"].Replay.Total.L1Misses < byLabel["base"].Replay.Total.L1Misses {
		t.Errorf("halving L1 reduced misses: %d < %d",
			byLabel["L1/2"].Replay.Total.L1Misses, byLabel["base"].Replay.Total.L1Misses)
	}
	if byLabel["L2/2"].Replay.Total.L2Misses < byLabel["base"].Replay.Total.L2Misses {
		t.Errorf("halving L2 reduced misses: %d < %d",
			byLabel["L2/2"].Replay.Total.L2Misses, byLabel["base"].Replay.Total.L2Misses)
	}
	out := FormatTraceSweep("sweep", res)
	for _, want := range []string{"base", "L1/2", "L1x2", "L1dm", "L2/2", "drift"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// sharedSweepTrace writes a synthetic trace of segs segments, each of
// events references spread over tids threads (tid 0 alone when tids is
// 1), every fifth a store, and loads it.
func sharedSweepTrace(t *testing.T, seed int64, segs, events, tids int) *trace.Data {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for s := 0; s < segs; s++ {
		for i := 0; i < events; i++ {
			kind := "load"
			if rng.Intn(5) == 0 {
				kind = "store"
			}
			fmt.Fprintf(&sb, `{"seq":%d,"pc":"0x0","disasm":"ld","fetch":0,"issue":1,"complete":2,"graduate":3,"level":%d,"addr":"0x%x","kind":%q,"tid":%d,"trap":false}`+"\n",
				i, 1+rng.Intn(3), uint64(rng.Intn(768))*32, kind, rng.Intn(tids))
		}
	}
	d, err := trace.Load(strings.NewReader(sb.String()), trace.ReaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// policySpecs is TraceGeometries(base) under every replacement policy,
// as informbench's trace_sweep builds it.
func policySpecs(base mem.HierConfig) []GeometrySpec {
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

// perSpecSweep is the sweep's reference: each spec replayed alone, in
// order, stopping at the first error.
func perSpecSweep(ctx context.Context, d *trace.Data, specs []GeometrySpec) ([]TraceResult, error) {
	var out []TraceResult
	for _, spec := range specs {
		res, err := trace.ReplayData(d, trace.ReplayConfig{Hier: spec.Hier, Ctx: ctx})
		if err != nil {
			return out, fmt.Errorf("replay %s: %w", spec.Label, err)
		}
		out = append(out, TraceResult{Label: spec.Label, Hier: spec.Hier, Replay: *res})
	}
	return out, nil
}

// TestTraceSweepMatchesPerSpecReplay is the shared-L1 sweep's
// differential: every spec's result must equal trace.ReplayData on that
// spec alone, own its Segments, and fail with the per-spec error text.
func TestTraceSweepMatchesPerSpecReplay(t *testing.T) {
	dm := sweepBase()
	dm.L1.Assoc = 1 // L1dm is base: identical specs share one result
	traces := []struct {
		name string
		d    *trace.Data
		base mem.HierConfig
	}{
		{"direct-mapped", sharedSweepTrace(t, 1, 1, 6000, 1), dm},
		{"2-way", sharedSweepTrace(t, 2, 1, 6000, 1), sweepBase()},
		{"multi-tid", sharedSweepTrace(t, 3, 3, 2000, 3), sweepBase()},
	}
	for _, tr := range traces {
		specs := policySpecs(tr.base)
		want, err := perSpecSweep(context.Background(), tr.d, specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := TraceSweep(tr.d, specs, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s -j %d: %v", tr.name, workers, err)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s -j %d %s: sweep %+v, alone %+v", tr.name, workers, specs[i].Label, got[i], want[i])
				}
			}
			for i := range got {
				for k := range got[i].Replay.Segments {
					got[i].Replay.Segments[k].Refs++
				}
				for j := range got {
					if j != i && !reflect.DeepEqual(got[j], want[j]) {
						t.Fatalf("%s: changing %s's segments changed %s's", tr.name, specs[i].Label, specs[j].Label)
					}
				}
				for k := range got[i].Replay.Segments {
					got[i].Replay.Segments[k].Refs--
				}
			}
		}
		if tr.name == "multi-tid" {
			tot := want[0].Replay.Total
			if len(want[0].Replay.Segments) != 3 || tot.Invalidations == 0 || tot.L1Tax.Coherence == 0 || tot.L2Tax.Coherence == 0 {
				t.Fatalf("multi-tid trace exercises no coherence: %d segments, %+v", len(want[0].Replay.Segments), tot)
			}
		}
	}

	// Errors: the per-spec reference's prefix and text, at any -j.
	d := traces[1].d
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	badL2 := policySpecs(sweepBase())
	badL2[9].Hier.L2.Assoc = 3 // L2/2: shares its L1 with spec 5
	var tids strings.Builder
	for i := 0; i <= trace.MaxTids; i++ {
		fmt.Fprintf(&tids, `{"seq":%d,"pc":"0x0","disasm":"x","fetch":0,"issue":0,"complete":0,"graduate":0,"level":1,"addr":"0x40","kind":"load","tid":%d,"trap":false}`+"\n", i, i)
	}
	manyTids, err := trace.Load(strings.NewReader(tids.String()), trace.ReaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		ctx   context.Context
		d     *trace.Data
		specs []GeometrySpec
	}{
		{"canceled", canceled, d, policySpecs(sweepBase())},
		{"deadline", expired, d, policySpecs(sweepBase())},
		{"tid bound", context.Background(), manyTids, policySpecs(sweepBase())},
		{"invalid L2", context.Background(), d, badL2},
	} {
		want, wantErr := perSpecSweep(c.ctx, c.d, c.specs)
		if wantErr == nil {
			t.Fatalf("%s: per-spec replay did not fail", c.name)
		}
		for _, workers := range []int{1, 4} {
			got, err := TraceSweep(c.d, c.specs, Options{Ctx: c.ctx, Workers: workers})
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s -j %d: error %v, per spec %v", c.name, workers, err, wantErr)
			}
			if len(got) != len(want) || len(want) != 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s -j %d: %d results before the error, per spec %d", c.name, workers, len(got), len(want))
			}
		}
	}
}
