package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestFingerprintSpellingInvariance: every wire spelling of the same
// simulation canonicalizes to the same struct and therefore the same
// fingerprint — machine aliases, omitted defaults, plan-suffix noise and
// JSON field order must all be invisible to the cache key.
func TestFingerprintSpellingInvariance(t *testing.T) {
	groups := [][]Request{
		{
			{Kind: KindCell, Benchmark: "compress", Plan: "S1"},
			{Kind: KindCell, Benchmark: "compress", Plan: "S1", Machine: "ooo"},
			{Kind: KindCell, Benchmark: "compress", Plan: "S1", Machine: "out-of-order"},
			{Kind: KindCell, Benchmark: "compress", Plan: "S1/branch", Scale: 1},
			{Kind: KindCell, Benchmark: "compress", Plan: "S1", MaxInsts: DefaultMaxInsts},
			{Kind: KindCell, Benchmark: "compress", Plan: "S1", Policy: "lru"},
		},
		{
			{Kind: KindCell, Benchmark: "tomcatv", Plan: "CC1", Machine: "inorder"},
			{Kind: KindCell, Benchmark: "tomcatv", Plan: "CC1", Machine: "in-order"},
		},
		{
			{Kind: KindFig4, App: "lu", Scheme: "informing"},
			{Kind: KindFig4, App: "lu", Scheme: "informing", Processors: DefaultProcessors},
		},
		{
			{Kind: KindProgram, Source: "\thalt\n"},
			{Kind: KindProgram, Source: "\thalt\n", Machine: "ooo", Scheme: "off"},
		},
	}
	for gi, group := range groups {
		want := ""
		for si, req := range group {
			canon, err := Canonicalize(req, 0)
			if err != nil {
				t.Fatalf("group %d spelling %d: %v", gi, si, err)
			}
			key := Fingerprint(canon)
			if si == 0 {
				want = key
				continue
			}
			if key != want {
				t.Errorf("group %d spelling %d: key %s, want %s (spellings of one simulation must share a key)",
					gi, si, key, want)
			}
		}
	}
}

// TestFingerprintFieldOrderInvariance: the key is computed from struct
// fields in a fixed order, so the JSON wire order cannot matter.
func TestFingerprintFieldOrderInvariance(t *testing.T) {
	docs := []string{
		`{"kind":"cell","benchmark":"compress","plan":"S1","machine":"ooo","scale":2}`,
		`{"scale":2,"machine":"ooo","plan":"S1","benchmark":"compress","kind":"cell"}`,
		`{"plan":"S1","kind":"cell","scale":2,"benchmark":"compress","machine":"ooo"}`,
	}
	want := ""
	for i, doc := range docs {
		var req Request
		if err := json.Unmarshal([]byte(doc), &req); err != nil {
			t.Fatal(err)
		}
		canon, err := Canonicalize(req, 0)
		if err != nil {
			t.Fatal(err)
		}
		key := Fingerprint(canon)
		if i == 0 {
			want = key
		} else if key != want {
			t.Errorf("field order %d changed the key: %s vs %s", i, key, want)
		}
	}
}

// TestFingerprintSensitivity: any change to what would be simulated — the
// plan, the workload, the machine, the budget, the scale, the program
// text, the processor count — must change the key.
func TestFingerprintSensitivity(t *testing.T) {
	base := Request{Kind: KindCell, Benchmark: "compress", Plan: "S1"}
	variants := []Request{
		{Kind: KindCell, Benchmark: "compress", Plan: "S2"},
		{Kind: KindCell, Benchmark: "compress", Plan: "U1"},
		{Kind: KindCell, Benchmark: "compress", Plan: "S1/exception"},
		{Kind: KindCell, Benchmark: "espresso", Plan: "S1"},
		{Kind: KindCell, Benchmark: "compress", Plan: "S1", Machine: MachineInOrder},
		{Kind: KindCell, Benchmark: "compress", Plan: "S1", Scale: 2},
		{Kind: KindCell, Benchmark: "compress", Plan: "S1", MaxInsts: 1_000_000},
		{Kind: KindCell, Benchmark: "compress", Plan: "S1", Policy: "srrip"},
		{Kind: KindCell, Benchmark: "compress", Plan: "S1", Policy: "brrip"},
		{Kind: KindCell, Benchmark: "compress", Plan: "S1", Policy: "trrip"},
	}
	seen := map[string]string{}
	record := func(r Request) string {
		canon, err := Canonicalize(r, 0)
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		return Fingerprint(canon)
	}
	baseKey := record(base)
	seen[baseKey] = "base"
	for _, v := range variants {
		key := record(v)
		if prev, dup := seen[key]; dup {
			t.Errorf("key collision: %+v and %s share %s", v, prev, key)
		}
		seen[key] = fmt.Sprintf("%+v", v)
	}

	// Program text and fig4 topology are part of the key too.
	p1 := record(Request{Kind: KindProgram, Source: "\thalt\n"})
	p2 := record(Request{Kind: KindProgram, Source: "\tnop\n\thalt\n"})
	if p1 == p2 {
		t.Error("program source change did not change the key")
	}
	f1 := record(Request{Kind: KindFig4, App: "lu", Scheme: "informing"})
	f2 := record(Request{Kind: KindFig4, App: "lu", Scheme: "informing", Processors: 8})
	f3 := record(Request{Kind: KindFig4, App: "lu", Scheme: "ecc-fault"})
	if f1 == f2 || f1 == f3 || f2 == f3 {
		t.Error("fig4 topology/scheme change did not change the key")
	}
}

type fingerprintPins struct {
	CodeVersion string `json:"code_version"`
	Pins        []struct {
		Name    string          `json:"name"`
		Request json.RawMessage `json:"request"`
		Key     string          `json:"key"`
	} `json:"pins"`
}

// TestFingerprintPinned replays the regression pins of
// testdata/fingerprints.json. The pinned keys were computed outside this
// process (sha256sum of the documented canonical strings), so agreement
// here is the cross-process determinism proof: the same request produces
// the same cache key in every informd instance of this code version.
//
// Regenerate after an intentional format/CodeVersion change with
// GOLDEN_PRINT=1.
func TestFingerprintPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/fingerprints.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins fingerprintPins
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	if pins.CodeVersion != CodeVersion {
		t.Fatalf("pins recorded for %q, code is %q — regenerate testdata/fingerprints.json",
			pins.CodeVersion, CodeVersion)
	}
	printMode := os.Getenv("GOLDEN_PRINT") != ""
	for _, pin := range pins.Pins {
		t.Run(pin.Name, func(t *testing.T) {
			dec := json.NewDecoder(bytes.NewReader(pin.Request))
			dec.DisallowUnknownFields()
			var req Request
			if err := dec.Decode(&req); err != nil {
				t.Fatal(err)
			}
			canon, err := Canonicalize(req, 0)
			if err != nil {
				t.Fatal(err)
			}
			key := Fingerprint(canon)
			if printMode {
				fmt.Printf("\t%s: %s\n", pin.Name, key)
				return
			}
			if key != pin.Key {
				t.Errorf("key %s, want pinned %s (canonical %q)", key, pin.Key, canonicalString(canon))
			}
		})
	}
}

// hashString streams a string through SHA-256 in chunks; the digest must
// be sha256.Sum256's on either side of every chunk boundary.
func TestHashStringMatchesSum256(t *testing.T) {
	long := strings.Repeat("0123456789abcdef\n", 3*hashChunk/16+1)
	for _, n := range []int{0, 1, hashChunk - 1, hashChunk, hashChunk + 1, 2 * hashChunk, len(long)} {
		s := long[:n]
		if got, want := hashString(s), sha256.Sum256([]byte(s)); got != want {
			t.Errorf("len %d: hashString = %x, want %x", n, got, want)
		}
	}
}

// respellings returns every rewrite of a cell's fields that must leave
// its fingerprint alone, given its canonical form: each alias or default
// spelled both ways (machine aliases, policy ""/lru, scale 0/1, maxinsts
// 0/DefaultMaxInsts, processors 0/DefaultProcessors, program scheme
// ""/off, and a sharing plan's /branch suffix).
func respellings(canon Request) []func(*Request) {
	var rw []func(*Request)
	add := func(applies bool, fs ...func(*Request)) {
		if applies {
			rw = append(rw, fs...)
		}
	}
	add(canon.Machine == MachineOOO,
		func(r *Request) { r.Machine = MachineOOO }, func(r *Request) { r.Machine = "out-of-order" })
	add(canon.Machine == MachineInOrder,
		func(r *Request) { r.Machine = MachineInOrder }, func(r *Request) { r.Machine = "in-order" })
	add(canon.Kind == KindCell && canon.Policy == "lru",
		func(r *Request) { r.Policy = "" }, func(r *Request) { r.Policy = "lru" })
	add(canon.Kind == KindCell && canon.Scale == 1,
		func(r *Request) { r.Scale = 0 }, func(r *Request) { r.Scale = 1 })
	add(canon.MaxInsts == DefaultMaxInsts,
		func(r *Request) { r.MaxInsts = 0 }, func(r *Request) { r.MaxInsts = DefaultMaxInsts })
	add(canon.Kind == KindFig4 && canon.Processors == DefaultProcessors,
		func(r *Request) { r.Processors = 0 }, func(r *Request) { r.Processors = DefaultProcessors })
	add(canon.Kind == KindProgram && canon.Scheme == "off",
		func(r *Request) { r.Scheme = "" }, func(r *Request) { r.Scheme = "off" })
	if p := canon.Plan; canon.Kind == KindCell && (strings.HasPrefix(p, "S") || strings.HasPrefix(p, "U")) &&
		!strings.HasPrefix(p, "SMP") && !strings.Contains(p, "/") {
		add(true, func(r *Request) { r.Plan = p + "/branch" }, func(r *Request) { r.Plan = p })
	}
	return rw
}

// FuzzCanonicalize decodes any body with decodeCells and holds every cell
// Canonicalize accepts to the fingerprint's promises: Canonicalize is
// idempotent and the canonical cell's fingerprint survives it, and every
// respelling of an alias or default keeps the fingerprint. The seed
// corpus holds a cell, fig4, program and trace cell with their defaults
// left out, one spelled out in full, and one cell Canonicalize rejects.
func FuzzCanonicalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		cells, err := decodeCells(body)
		if err != nil {
			return
		}
		for _, c := range cells {
			canon, err := Canonicalize(c, 0)
			if err != nil {
				continue
			}
			key := Fingerprint(canon)
			if again, err := Canonicalize(canon, 0); err != nil || again != canon || Fingerprint(again) != key {
				t.Fatalf("Canonicalize not idempotent on %#v: %#v, %v", canon, again, err)
			}
			for i, rewrite := range respellings(canon) {
				r := c
				rewrite(&r)
				rc, err := Canonicalize(r, 0)
				if err != nil || Fingerprint(rc) != key {
					t.Fatalf("respelling %d of %#v gives %#v (%v), fingerprint %s; want %s",
						i, c, rc, err, Fingerprint(rc), key)
				}
			}
		}
	})
}
