package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"informing/internal/govern"
	"informing/internal/mem"
	"informing/internal/obs"
	"informing/internal/stats"
)

func tinyHier() mem.HierConfig {
	return mem.HierConfig{
		L1: mem.CacheConfig{SizeBytes: 256, LineBytes: 32, Assoc: 2},
		L2: mem.CacheConfig{SizeBytes: 1024, LineBytes: 32, Assoc: 4},
	}
}

// TestReplayMatchesDirectHierarchy is the core differential: a random
// reference stream recorded through the real obs JSONL encoder and
// replayed from the text must reproduce exactly the counters of driving
// mem.Hierarchy directly with the same (addr, write) sequence.
func TestReplayMatchesDirectHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref, err := mem.NewHierarchy(tinyHier())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf, 1)
	for i := uint64(0); i < 20000; i++ {
		ev := stats.TraceEvent{
			Seq: i, PC: 0x1000 + 4*i, Disasm: "op",
			Fetch: int64(i), Issue: int64(i) + 1, Complete: int64(i) + 2, Graduate: int64(i) + 3,
		}
		if rng.Intn(3) > 0 { // ~2/3 memory events
			addr := uint64(rng.Intn(64)) * 32 * uint64(1+rng.Intn(4))
			store := rng.Intn(4) == 0
			ev.Addr = addr
			ev.Store = store
			ev.MemLevel = ref.ProbeData(addr, store)
		}
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := Replay(bytes.NewReader(buf.Bytes()), ReplayConfig{Hier: tinyHier()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Refs != ref.Refs || res.Total.L1Misses != ref.L1Misses || res.Total.L2Misses != ref.L2Misses {
		t.Errorf("replay (refs %d, l1m %d, l2m %d) != direct (refs %d, l1m %d, l2m %d)",
			res.Total.Refs, res.Total.L1Misses, res.Total.L2Misses,
			ref.Refs, ref.L1Misses, ref.L2Misses)
	}
	if res.Total.LevelMismatches != 0 {
		t.Errorf("%d level mismatches on a faithful replay", res.Total.LevelMismatches)
	}
	if err := res.Reconcile(stats.Run{MemRefs: ref.Refs, L1Misses: ref.L1Misses, L2Misses: ref.L2Misses}); err != nil {
		t.Errorf("Reconcile: %v", err)
	}
	if err := res.Reconcile(stats.Run{MemRefs: ref.Refs + 1, L1Misses: ref.L1Misses, L2Misses: ref.L2Misses}); err == nil {
		t.Error("Reconcile accepted a counter delta")
	}
}

// Segments replay from cold caches: the same refs twice as two segments
// double every counter of a single-segment replay.
func TestReplaySegmentsAreIndependent(t *testing.T) {
	var one, two []string
	seg := func(dst *[]string) {
		for i := 0; i < 50; i++ {
			*dst = append(*dst, line(uint64(i), 1+i%3, uint64(0x40*(i%16)), i%5 == 0, false))
		}
	}
	seg(&one)
	seg(&two)
	seg(&two)

	r1, err := Replay(joinTrace(one...), ReplayConfig{Hier: tinyHier()})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Replay(joinTrace(two...), ReplayConfig{Hier: tinyHier()})
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(r2.Segments))
	}
	if r2.Total.Refs != 2*r1.Total.Refs || r2.Total.L1Misses != 2*r1.Total.L1Misses || r2.Total.L2Misses != 2*r1.Total.L2Misses {
		t.Errorf("doubled trace: %+v, single: %+v", r2.Total, r1.Total)
	}
	for _, s := range r2.Segments {
		if s != r1.Segments[0] {
			t.Errorf("segment %+v differs from single-segment reference %+v", s, r1.Segments[0])
		}
	}
}

// Multiprocessor traces replay with per-tid hierarchies and store
// invalidation: a store by one thread knocks the line out of the others.
func TestReplayCoherentMultiTid(t *testing.T) {
	mk := func(seq uint64, level int, addr uint64, kind string, tid int) string {
		return fmt.Sprintf(`{"seq":%d,"pc":"0x1000","disasm":"x","fetch":1,"issue":2,"complete":3,"graduate":4,"level":%d,"addr":"0x%x","kind":%q,"tid":%d,"trap":false}`,
			seq, level, addr, kind, tid)
	}
	res, err := Replay(joinTrace(
		mk(0, 3, 0x100, "load", 0),  // tid 0: cold miss
		mk(1, 1, 0x100, "load", 0),  // tid 0: L1 hit
		mk(2, 3, 0x100, "store", 1), // tid 1: cold miss + invalidates tid 0
		mk(3, 1, 0x100, "load", 0),  // tid 0: would be a hit uniprocessor; now a miss
	), ReplayConfig{Hier: tinyHier()})
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Total
	if tot.Tids != 2 {
		t.Errorf("tids = %d, want 2", tot.Tids)
	}
	if tot.Invalidations != 2 { // L1 + L2 of tid 0
		t.Errorf("invalidations = %d, want 2", tot.Invalidations)
	}
	// Refs: 4. Misses: seq 0 (L1+L2), seq 2 (L1+L2), seq 3 (L1+L2 after
	// invalidation) — seq 1 hits.
	if tot.Refs != 4 || tot.L1Misses != 3 || tot.L2Misses != 3 {
		t.Errorf("refs=%d l1m=%d l2m=%d, want 4/3/3", tot.Refs, tot.L1Misses, tot.L2Misses)
	}
	// The recorded levels came from a run that didn't model the
	// invalidation, so exactly seq 3 mismatches.
	if tot.LevelMismatches != 1 {
		t.Errorf("level mismatches = %d, want 1", tot.LevelMismatches)
	}
}

// TestReplayMaxTids: a trace may name MaxTids distinct thread ids; one
// more is rejected.
func TestReplayMaxTids(t *testing.T) {
	var lines []string
	for i := 0; i <= MaxTids; i++ {
		lines = append(lines, fmt.Sprintf(`{"seq":%d,"pc":"0x0","disasm":"x","fetch":0,"issue":0,"complete":0,"graduate":0,"level":1,"addr":"0x40","kind":"load","tid":%d,"trap":false}`, i, i))
	}
	if _, err := Replay(joinTrace(lines[:MaxTids]...), ReplayConfig{Hier: tinyHier()}); err != nil {
		t.Errorf("%d tids: %v", MaxTids, err)
	}
	if _, err := Replay(joinTrace(lines...), ReplayConfig{Hier: tinyHier()}); err == nil || !strings.Contains(err.Error(), "tids") {
		t.Errorf("%d tids: err = %v, want tid-bound rejection", MaxTids+1, err)
	}
}

func TestReplayBudget(t *testing.T) {
	var lines []string
	for i := 0; i < 20; i++ {
		lines = append(lines, line(uint64(i), 1, 0x40, false, false))
	}
	_, err := Replay(joinTrace(lines...), ReplayConfig{Hier: tinyHier(), MaxRefs: 10})
	if !errors.Is(err, govern.ErrBudget) {
		t.Errorf("err = %v, want govern.ErrBudget", err)
	}
}

func TestReplayCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var lines []string
	for i := 0; i < 5000; i++ {
		lines = append(lines, line(uint64(i), 1, 0x40, false, false))
	}
	_, err := Replay(joinTrace(lines...), ReplayConfig{Hier: tinyHier(), Ctx: ctx})
	if !errors.Is(err, govern.ErrCanceled) {
		t.Errorf("err = %v, want govern.ErrCanceled", err)
	}
}

func TestReplayRejectsV1Trace(t *testing.T) {
	_, err := Replay(joinTrace(
		line(0, 0, 0, false, true),
		line(1, 2, 0, false, true),
	), ReplayConfig{Hier: tinyHier()})
	if !errors.Is(err, ErrNoAddr) {
		t.Errorf("err = %v, want ErrNoAddr", err)
	}
}

func TestReplayRejectsSampledByDefault(t *testing.T) {
	_, err := Replay(joinTrace(line(63, 1, 0x40, false, false)), ReplayConfig{Hier: tinyHier()})
	if !errors.Is(err, ErrSampled) {
		t.Errorf("err = %v, want ErrSampled", err)
	}
}

// ReplayData over a loaded trace must agree exactly with the streaming
// replay of the same text.
func TestReplayDataMatchesStreaming(t *testing.T) {
	var lines []string
	rng := rand.New(rand.NewSource(11))
	seq := uint64(0)
	for s := 0; s < 3; s++ {
		seq = 0
		for i := 0; i < 200; i++ {
			lv := rng.Intn(4)
			lines = append(lines, line(seq, lv, uint64(rng.Intn(128))*32, rng.Intn(3) == 0, false))
			seq++
		}
	}
	text := strings.Join(lines, "\n") + "\n"

	streamed, err := Replay(strings.NewReader(text), ReplayConfig{Hier: tinyHier()})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Load(strings.NewReader(text), ReaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := ReplayData(d, ReplayConfig{Hier: tinyHier()})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Total != loaded.Total {
		t.Errorf("streamed total %+v != loaded total %+v", streamed.Total, loaded.Total)
	}
	if len(streamed.Segments) != len(loaded.Segments) {
		t.Fatalf("segment counts differ: %d vs %d", len(streamed.Segments), len(loaded.Segments))
	}
	for i := range streamed.Segments {
		if streamed.Segments[i] != loaded.Segments[i] {
			t.Errorf("segment %d: %+v vs %+v", i, streamed.Segments[i], loaded.Segments[i])
		}
	}
}

// A replay result must not keep the replay's hierarchies alive: informd
// caches results, and a hierarchy holds both caches' tags and their
// taxonomy shadows. Keeping a few results of replays through a large
// geometry must not keep their hierarchies on the heap. A cache allocates
// storage only for the sets a run fills, so the trace touches every set
// of the L2: each hierarchy then weighs about 9 MB, and three pinned
// ones would grow the heap well past the bound.
func TestReplayResultReleasesHierarchies(t *testing.T) {
	big := mem.HierConfig{
		L1: mem.CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 2},
		L2: mem.CacheConfig{SizeBytes: 8 << 20, LineBytes: 32, Assoc: 4},
	}
	var lines []string
	for s := 0; s < big.L2.Sets(); s++ {
		lines = append(lines, line(uint64(s), 3, uint64(s*big.L2.LineBytes), s%2 == 0, false))
	}
	text := traceText(lines...)
	d, err := Load(strings.NewReader(text), ReaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for name, replay := range map[string]func() (*ReplayResult, error){
		"Replay":     func() (*ReplayResult, error) { return Replay(strings.NewReader(text), ReplayConfig{Hier: big}) },
		"ReplayData": func() (*ReplayResult, error) { return ReplayData(d, ReplayConfig{Hier: big}) },
		"ReplayShared": func() (*ReplayResult, error) {
			res, err := ReplayShared(d, []mem.HierConfig{big, big}, ReplayConfig{})
			if err != nil {
				return nil, err
			}
			return res[1], nil
		},
	} {
		base := heap()
		var kept []*ReplayResult
		for i := 0; i < 3; i++ {
			res, err := replay()
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, res)
		}
		grown := heap() - base
		runtime.KeepAlive(kept)
		if grown > 8<<20 {
			t.Errorf("%s: keeping %d results grew the heap by %d MB; the results pin their hierarchies", name, len(kept), grown>>20)
		}
	}
}

// ReplayShared takes only hierarchies that share one L1.
func TestReplaySharedRejectsDifferentL1s(t *testing.T) {
	d, err := Load(joinTrace(line(0, 1, 0x40, false, false)), ReaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	other := tinyHier()
	other.L1.Assoc = 1
	for name, hiers := range map[string][]mem.HierConfig{
		"none":         nil,
		"different L1": {tinyHier(), other},
	} {
		if res, err := ReplayShared(d, hiers, ReplayConfig{}); err == nil {
			t.Errorf("%s: got %+v, want an error", name, res)
		}
	}
}
