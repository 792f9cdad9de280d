package main

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// rep builds a report the way benchdiff reads one: as `go test -bench`
// output with one ns/op result line per measurement.
func rep(cells map[string]float64) report {
	var names []string
	for name := range cells {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "Benchmark%s-2   \t      10\t %g ns/op\n", name, cells[name])
	}
	r, err := parse(b.String())
	if err != nil {
		panic(err)
	}
	return r
}

func TestWatchListAllIsSortedIntersection(t *testing.T) {
	ref := rep(map[string]float64{"HotpathOOOCell": 100, "HotpathInterpRun": 20, "OldOnly": 5})
	cur := rep(map[string]float64{"HotpathOOOCell": 100, "HotpathInterpRun": 20, "NewOnly": 5})
	got := watchList("all", ref, cur)
	want := []string{"HotpathInterpRun", "HotpathOOOCell"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("watchList(all) = %v, want %v", got, want)
	}
}

func TestWatchListExplicitPassesThrough(t *testing.T) {
	got := watchList(" HotpathOOOCell, missing ", report{}, report{})
	want := []string{"HotpathOOOCell", "missing"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("watchList = %v, want %v", got, want)
	}
}

func TestGatePerCellThresholds(t *testing.T) {
	ref := rep(map[string]float64{"HotpathOOOCell": 100, "HotpathInterpRun": 20})
	// HotpathOOOCell +15% breaks its 10% bound; HotpathInterpRun +15%
	// sits inside its widened 25% noise bound.
	cur := rep(map[string]float64{"HotpathOOOCell": 115, "HotpathInterpRun": 23})
	var out, errOut bytes.Buffer
	if !gate(ref, cur, []string{"HotpathOOOCell", "HotpathInterpRun"}, 0.10, &out, &errOut) {
		t.Fatalf("gate passed a 15%% HotpathOOOCell regression:\n%s", out.String())
	}
	s := out.String()
	if !bytes.Contains(out.Bytes(), []byte("REGRESSION")) {
		t.Errorf("output lacks a REGRESSION line:\n%s", s)
	}

	// The same +15% on HotpathInterpRun alone passes.
	out.Reset()
	if gate(ref, cur, []string{"HotpathInterpRun"}, 0.10, &out, &errOut) {
		t.Fatalf("gate failed HotpathInterpRun +15%% despite its 25%% noise bound:\n%s", out.String())
	}
}

func TestGateImprovementPasses(t *testing.T) {
	ref := rep(map[string]float64{"HotpathOOOCell": 100})
	cur := rep(map[string]float64{"HotpathOOOCell": 80})
	var out, errOut bytes.Buffer
	if gate(ref, cur, []string{"HotpathOOOCell"}, 0.10, &out, &errOut) {
		t.Fatalf("gate failed an improvement:\n%s", out.String())
	}
}

func TestGateMissingMeasurementFails(t *testing.T) {
	ref := rep(map[string]float64{"HotpathOOOCell": 100})
	cur := rep(map[string]float64{"HotpathOOOCell": 100})
	var out, errOut bytes.Buffer
	if !gate(ref, cur, []string{"HotpathOOOCell", "ghost"}, 0.10, &out, &errOut) {
		t.Fatal("gate passed with an explicitly watched measurement missing")
	}
	if !bytes.Contains(errOut.Bytes(), []byte("ghost missing")) {
		t.Errorf("diagnostics lack the missing name:\n%s", errOut.String())
	}
}

func TestGateCommittedMeasurementMissingFromFreshFails(t *testing.T) {
	// HotpathOOOCell renamed (or failed out of the fresh run): the
	// intersection alone would gate cleanly.
	ref := rep(map[string]float64{"HotpathOOOCell": 100, "HotpathInterpRun": 20})
	cur := rep(map[string]float64{"HotpathOOOCellRenamed": 100, "HotpathInterpRun": 20})
	var out, errOut bytes.Buffer
	if !gate(ref, cur, watchList("all", ref, cur), 0.10, &out, &errOut) {
		t.Fatalf("gate passed with a committed measurement missing from the fresh run:\n%s", out.String())
	}
	for _, want := range []string{"committed HotpathOOOCell missing", "HotpathOOOCellRenamed is new"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("diagnostics lack %q:\n%s", want, errOut.String())
		}
	}

	// A measurement only in the fresh run is listed, not gated.
	cur["HotpathOOOCell"] = 100
	if gate(ref, cur, watchList("all", ref, cur), 0.10, &out, &errOut) {
		t.Fatalf("gate failed on a fresh-only measurement:\n%s", errOut.String())
	}
}

func TestThresholdForNeverNarrowsBelowFlag(t *testing.T) {
	// A generous -threshold must not be narrowed by the noise table.
	if th := thresholdFor("HotpathInterpRun", 0.50); th != 0.50 {
		t.Errorf("thresholdFor(HotpathInterpRun, 0.50) = %v, want 0.50", th)
	}
	if th := thresholdFor("HotpathInterpRun", 0.10); th != 0.25 {
		t.Errorf("thresholdFor(HotpathInterpRun, 0.10) = %v, want 0.25", th)
	}
	if th := thresholdFor("HotpathOOOCell", 0.10); th != 0.10 {
		t.Errorf("thresholdFor(HotpathOOOCell, 0.10) = %v, want 0.10", th)
	}
}

// benchOutput is `go test -bench -benchmem -count 2` output as
// `make bench` records it, header included, plus hand-made lines: two run
// at GOMAXPROCS=1 (no -N suffix), one with a dash in its name, and a
// benchmark's own stdout printed after its name, which is no result.
const benchOutput = `go: go1.24.0
goos: linux
goarch: amd64
pkg: informing/internal/core
cpu: Intel(R) Xeon(R) Processor
BenchmarkHotpathCacheMix-2      	18666644	        57.31 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotpathOOOCell-2       	      33	  36749044 ns/op	       190.4 ns/inst	 2379657 B/op	     101 allocs/op
BenchmarkHotpathCacheMix-2      	18666644	        55.02 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotpathOOOCell-2       	      33	  35000000 ns/op	       196.0 ns/inst	 2379657 B/op	     101 allocs/op
BenchmarkHotpathFig2Cell        	      14	  76459130 ns/op	       205.9 ns/inst
BenchmarkTable-sweep            	       3	        12 ns/op
BenchmarkTable-sweep            	warming up
PASS
ok  	informing/internal/core	9.758s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := parse(benchOutput)
	if err != nil {
		t.Fatal(err)
	}
	// The -N suffix is dropped (and only it), the best of the -count lines
	// is kept, and ns/inst wins over ns/op (the second OOOCell line has
	// the lower ns/op but the higher ns/inst).
	want := report{
		"HotpathCacheMix": 55.02,
		"HotpathOOOCell":  190.4,
		"HotpathFig2Cell": 205.9,
		"Table-sweep":     12,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse = %v, want %v", got, want)
	}
}

func TestParseRejects(t *testing.T) {
	for name, in := range map[string]string{
		"no timing field": "BenchmarkHotpathOOOCell-2 \t 33\t 2379657 B/op\t 101 allocs/op\n",
		"bad value":       "BenchmarkHotpathOOOCell-2 \t 33\t fast ns/op\n",
		"no results":      "goos: linux\nPASS\nok  \tinforming/internal/core\t9.758s\n",
	} {
		if got, err := parse(in); err == nil {
			t.Errorf("%s: parse accepted %q as %v", name, in, got)
		}
	}
}
