package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// tinySize shrinks every workload so that the whole suite runs in
// seconds: the smoke test keeps the benchmark compiling and its
// self-checks live. Being that short, it runs under -short too; it is
// the lane `go test -short ./...` in this module exists for.
var tinySize = sizing{setupReps: 1, gridBenchmarks: 1, traceFP: "ora", traceINT: "ora",
	hotCells: 8, uploads: 4, warmKeys: 30, sampleCells: 2}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, traced), func(t *testing.T) {
				e := &env{seed: defaultSeed, budget: 200 * time.Millisecond, dir: t.TempDir(), size: tinySize}
				var out bytes.Buffer
				res, err := execute(w, e, traced, "", &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if _, ok := res.Metrics[d.name]; !ok {
						t.Errorf("metric %s missing", d.name)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Errorf("printed a result for an unknown workload: %s", out.String())
	}
	if !strings.Contains(errOut.String(), "unknown workload") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

// The tail rule: the highest of p99.9/p99/p90/p50 with at least ten
// samples beyond it (nearest rank).
func TestTailPercentileRule(t *testing.T) {
	cases := []struct{ n, level, value int }{
		{5, 0, 0},
		{19, 0, 0},
		{20, 500, 10},
		{99, 500, 50},
		{100, 900, 90},
		{999, 900, 900},
		{1000, 990, 990},
		{10000, 999, 9990},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[len(xs)-1-i] = float64(i + 1) // unsorted input
		}
		level := levelFor(c.n)
		if level != c.level {
			t.Errorf("n=%d: level %d, want %d", c.n, level, c.level)
			continue
		}
		if level == 0 {
			continue
		}
		v, beyond := percentile(xs, level)
		if v != float64(c.value) || beyond != c.n-c.value || beyond < minBeyond {
			t.Errorf("n=%d: %s = %v with %d beyond, want %d with %d", c.n, levelName(level), v, beyond, c.value, c.n-c.value)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "job", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "job", Start: 20, End: 50}, // overlaps job 2
		{ID: 4, Parent: 1, Name: "job", Start: 60, End: 70},
		{ID: 5, Parent: 3, Name: "run", Start: 25, End: 45},
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{50, 20, 10, 10, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %v, want %v", i+1, got[i], want[i])
		}
	}
	bad := append([]span(nil), spans...)
	bad[4].End = 55 // child ends after its parent
	if checkSpans(bad) == nil {
		t.Error("a child outside its parent passed checkSpans")
	}
}

// Spans recorded concurrently, as the traced runs record them, have
// non-negative self times and lie inside their parents.
func TestTracerSelfTimesConcurrent(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				job := tr.begin("job", root.id, tr.newReq())
				inner := tr.begin("inner", job.id, 0)
				time.Sleep(10 * time.Microsecond)
				inner.stop()
				job.stop()
			}
		}()
	}
	wg.Wait()
	root.stop()
	spans := tr.snapshot()
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	for i, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("span %d %s: negative self time %v", spans[i].ID, spans[i].Name, self)
		}
	}
	lt := byName(spans)
	if lt["job"].n != 200 || lt["inner"].n != 200 {
		t.Errorf("recorded %d jobs and %d inner spans, want 200 each", lt["job"].n, lt["inner"].n)
	}
	if lt["job"].self > lt["job"].total || lt["inner"].total > lt["job"].total {
		t.Errorf("children exceed their parents: %+v %+v", *lt["job"], *lt["inner"])
	}
}

// BENCHMARK.json at the repository root declares the same workloads and
// metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if strings.Join(spec.Command, " ") != "bash bench/run.sh" || strings.Join(spec.Paths, " ") != "bench" {
		t.Errorf("command %q, paths %q", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q %q, program has %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: %+v, program has %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}
