package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"informing/internal/faults"
)

const testVersion = "informing-sim/test"

func openTest(t *testing.T, dir string, mut func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir, Version: testVersion}
	if mut != nil {
		mut(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func key(i int) string { return fmt.Sprintf("%032x", i) }

func mustPut(t *testing.T, s *Store, k string, payload []byte) {
	t.Helper()
	if err := s.Put(k, payload); err != nil {
		t.Fatalf("Put(%s): %v", k, err)
	}
}

func mustGet(t *testing.T, s *Store, k string) []byte {
	t.Helper()
	b, ok, err := s.Get(k)
	if err != nil {
		t.Fatalf("Get(%s): %v", k, err)
	}
	if !ok {
		t.Fatalf("Get(%s): miss, want hit", k)
	}
	return b
}

func TestStoreRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	payload := []byte(`{"run":{"Cycles":12345}}`)
	mustPut(t, s, key(1), payload)
	if got := mustGet(t, s, key(1)); !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q, want %q", got, payload)
	}
	if _, ok, err := s.Get(key(2)); ok || err != nil {
		t.Fatalf("absent key: ok=%v err=%v, want miss", ok, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 write", st)
	}
}

// TestStoreWarmReopen: a second Open over the same directory recovers the
// index and serves the same payloads — the warm-restart property.
func TestStoreWarmReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	for i := 0; i < 5; i++ {
		mustPut(t, s, key(i), []byte(fmt.Sprintf("payload-%d", i)))
	}

	s2 := openTest(t, dir, nil)
	if s2.Len() != 5 {
		t.Fatalf("reopened store has %d entries, want 5", s2.Len())
	}
	for i := 0; i < 5; i++ {
		want := fmt.Sprintf("payload-%d", i)
		if got := string(mustGet(t, s2, key(i))); got != want {
			t.Fatalf("entry %d = %q, want %q", i, got, want)
		}
	}
}

// TestStoreVersionInvalidation: opening with a different version string
// empties the store — results from another simulator build are never
// replayed — while a same-version reopen keeps everything.
func TestStoreVersionInvalidation(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	mustPut(t, s, key(1), []byte("old-build-result"))

	s2 := openTest(t, dir, func(o *Options) { o.Version = "informing-sim/other" })
	if s2.Len() != 0 {
		t.Fatalf("version-invalidated store has %d entries, want 0", s2.Len())
	}
	if _, ok, _ := s2.Get(key(1)); ok {
		t.Fatal("stale-version entry served")
	}
	if st := s2.Stats(); st.Purged != 1 {
		t.Fatalf("purged = %d, want 1", st.Purged)
	}

	// And the new version is now durable: a third open (same new version)
	// does not purge again.
	mustPut(t, s2, key(2), []byte("new-build-result"))
	s3 := openTest(t, dir, func(o *Options) { o.Version = "informing-sim/other" })
	if s3.Len() != 1 {
		t.Fatalf("same-version reopen purged: %d entries, want 1", s3.Len())
	}
}

// TestStoreCorruptionQuarantined: flipped payload bytes, a truncated
// (torn) file, a wrong-key rename and a stale header version are all
// detected at Get, quarantined, and reported as misses — never served.
func TestStoreCorruptionQuarantined(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir, path string)
	}{
		{"bit-flip", func(t *testing.T, dir, path string) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			blob[len(blob)-1] ^= 0x40
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"torn-write", func(t *testing.T, dir, path string) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob[:len(blob)-3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong-key", func(t *testing.T, dir, path string) {
			if err := os.Rename(path, filepath.Join(dir, key(99)+entrySuffix)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, nil)
			mustPut(t, s, key(1), []byte("precious result"))
			tc.corrupt(t, dir, filepath.Join(dir, key(1)+entrySuffix))

			// Reopen (the index must pick the corrupt file up again) and read.
			s2 := openTest(t, dir, nil)
			probe := key(1)
			if tc.name == "wrong-key" {
				probe = key(99)
			}
			b, ok, err := s2.Get(probe)
			if err != nil {
				t.Fatalf("corruption surfaced as I/O error: %v", err)
			}
			if ok {
				t.Fatalf("corrupted entry served: %q", b)
			}
			if st := s2.Stats(); st.Quarantined != 1 {
				t.Fatalf("quarantined = %d, want 1", st.Quarantined)
			}
			// The bad file moved aside for post-mortem, not silently gone.
			qents, err := os.ReadDir(filepath.Join(dir, quarantineDir))
			if err != nil || len(qents) != 1 {
				t.Fatalf("quarantine dir: %v entries, err %v, want exactly 1", len(qents), err)
			}
			// A second probe is a plain miss: quarantine is one-shot.
			if _, ok, _ := s2.Get(probe); ok {
				t.Fatal("quarantined entry served on second read")
			}
		})
	}
}

// TestStoreSizeBoundEviction: inserts stay under MaxBytes by evicting in
// LRU order; a Get refreshes an entry's position.
func TestStoreSizeBoundEviction(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 100)
	s := openTest(t, t.TempDir(), func(o *Options) { o.MaxBytes = 700 })
	entrySize := int64(len(s.header(key(0), payload)) + len(payload))
	fit := int(700 / entrySize)
	if fit < 2 {
		t.Fatalf("test geometry broken: %d entries fit", fit)
	}
	for i := 0; i < fit; i++ {
		mustPut(t, s, key(i), payload)
	}
	// Touch entry 0 so it is MRU, then overflow by one.
	mustGet(t, s, key(0))
	mustPut(t, s, key(fit), payload)

	if s.Bytes() > 700 {
		t.Fatalf("store holds %d bytes, bound 700", s.Bytes())
	}
	if _, ok, _ := s.Get(key(1)); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	if _, ok, _ := s.Get(key(0)); !ok {
		t.Fatal("recently-used entry 0 evicted out of order")
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

// TestStoreOversizedEntrySkipped: an entry larger than the whole bound is
// not stored (and not an error), and evicts nothing.
func TestStoreOversizedEntrySkipped(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) { o.MaxBytes = 400 })
	mustPut(t, s, key(1), bytes.Repeat([]byte("y"), 50))
	mustPut(t, s, key(2), bytes.Repeat([]byte("z"), 1000))
	if _, ok, _ := s.Get(key(2)); ok {
		t.Fatal("oversized entry stored")
	}
	if _, ok, _ := s.Get(key(1)); !ok {
		t.Fatal("oversized insert evicted an innocent entry")
	}
}

// TestStoreStrayTempCleanedOnOpen: a crash between write and rename
// leaves a .tmp file; Open removes it and never indexes it.
func TestStoreStrayTempCleanedOnOpen(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, key(7)+entrySuffix+tmpSuffix)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("half an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, nil)
	if s.Len() != 0 {
		t.Fatalf("stray temp indexed: %d entries", s.Len())
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stray temp not cleaned: %v", err)
	}
}

// TestStoreRecoveryKeepsLRUOrder: mtimes persist access order, so the
// reopened store evicts the same victim the original would have.
func TestStoreRecoveryKeepsLRUOrder(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	for i := 0; i < 3; i++ {
		mustPut(t, s, key(i), []byte("p"))
		// Distinct mtimes even on coarse-granularity filesystems.
		past := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, key(i)+entrySuffix), past, past); err != nil {
			t.Fatal(err)
		}
	}
	s2 := openTest(t, dir, nil)
	keys := s2.Keys()
	want := []string{key(2), key(1), key(0)} // newest mtime first
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("recovered order %v, want %v", keys, want)
		}
	}
}

// TestStoreWriteFaultSurfacesError: injected ENOSPC on the entry write
// path escapes Put as an error wrapping faults.ErrInjected — the serving
// layer's degrade signal — and the failed entry is never indexed.
func TestStoreWriteFaultSurfacesError(t *testing.T) {
	ffs := faults.NewFS(faults.FSPlan{Seed: 42, Rules: []faults.FSRule{
		{Kind: faults.FSNoSpace, PathContains: entrySuffix},
	}})
	s := openTest(t, t.TempDir(), func(o *Options) { o.FS = ffs })
	err := s.Put(key(1), []byte("doomed"))
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Put under ENOSPC: %v, want injected error", err)
	}
	if s.Len() != 0 {
		t.Fatal("failed write left an index entry")
	}
	if _, ok, _ := s.Get(key(1)); ok {
		t.Fatal("failed write served")
	}
}

// TestStoreTornWriteNeverServed: a torn write that "succeeds" (prefix
// persisted, success reported) must be caught by verification at read
// time and quarantined — the central never-serve-a-wrong-table property.
func TestStoreTornWriteNeverServed(t *testing.T) {
	dir := t.TempDir()
	ffs := faults.NewFS(faults.FSPlan{Seed: 7, Rules: []faults.FSRule{
		{Kind: faults.FSTorn, PathContains: entrySuffix, MaxFires: 1},
	}})
	s := openTest(t, dir, func(o *Options) { o.FS = ffs })
	if err := s.Put(key(1), []byte("this payload will be torn in half")); err != nil {
		t.Fatalf("torn write should report success: %v", err)
	}
	if _, ok, err := s.Get(key(1)); ok || err != nil {
		t.Fatalf("torn entry: ok=%v err=%v, want verification miss", ok, err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", st.Quarantined)
	}
	// The next write of the same key succeeds and serves cleanly.
	mustPut(t, s, key(1), []byte("recomputed"))
	if got := string(mustGet(t, s, key(1))); got != "recomputed" {
		t.Fatalf("recomputed entry = %q", got)
	}
}

// TestStoreBitFlipNeverServed: a bit flipped by the filesystem between
// write and read fails the checksum and is quarantined.
func TestStoreBitFlipNeverServed(t *testing.T) {
	ffs := faults.NewFS(faults.FSPlan{Seed: 11, Rules: []faults.FSRule{
		{Kind: faults.FSFlip, Ops: faults.FSRead, PathContains: entrySuffix, MaxFires: 1},
	}})
	s := openTest(t, t.TempDir(), func(o *Options) { o.FS = ffs })
	mustPut(t, s, key(1), []byte("checksummed payload"))
	if _, ok, err := s.Get(key(1)); ok || err != nil {
		t.Fatalf("flipped entry: ok=%v err=%v, want verification miss", ok, err)
	}
}

// TestStoreConcurrentAccess shakes Put/Get/Delete from many goroutines
// (run under -race in CI) and verifies every served payload matches its
// key — no interleaving may cross payloads between entries.
func TestStoreConcurrentAccess(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) { o.MaxBytes = 4096 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := key(i % 5)
				want := "payload-for-" + k
				switch i % 3 {
				case 0:
					if err := s.Put(k, []byte(want)); err != nil {
						t.Errorf("Put: %v", err)
					}
				case 1:
					if b, ok, err := s.Get(k); err != nil {
						t.Errorf("Get: %v", err)
					} else if ok && string(b) != want {
						t.Errorf("Get(%s) = %q, want %q", k, b, want)
					}
				case 2:
					if err := s.Delete(k); err != nil {
						t.Errorf("Delete: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStoreRejectsBadOptions(t *testing.T) {
	if _, err := Open(Options{Version: "v"}); err == nil {
		t.Error("Open without dir succeeded")
	}
	if _, err := Open(Options{Dir: t.TempDir()}); err == nil {
		t.Error("Open without version succeeded")
	}
	if _, err := Open(Options{Dir: t.TempDir(), Version: "has space"}); err == nil {
		t.Error("Open with spaced version succeeded")
	}
	s := openTest(t, t.TempDir(), nil)
	if err := s.Put("NOT-HEX", []byte("x")); err == nil || !strings.Contains(err.Error(), "invalid key") {
		t.Errorf("Put with invalid key: %v", err)
	}
}

// TestStoreRecoveryEqualMtimesDeterministic: filesystem timestamps are
// coarse, so a batch of entries routinely shares one mtime. sort.Slice is
// unstable, so without the key tie-break the recovered LRU order — and
// therefore which entries a recovery-time eviction removes — differed
// from run to run. The tie-break pins both: order is mtime-then-key, and
// the eviction victims under a shrunken budget are always the
// lexicographically smallest keys of the equal-mtime batch.
func TestStoreRecoveryEqualMtimesDeterministic(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	const n = 9
	for i := 0; i < n; i++ {
		mustPut(t, s, key(i), []byte("p"))
	}
	perEntry := s.Bytes() / n
	stamp := time.Now().Add(-time.Hour).Truncate(time.Second)
	for i := 0; i < n; i++ {
		if err := os.Chtimes(filepath.Join(dir, key(i)+entrySuffix), stamp, stamp); err != nil {
			t.Fatal(err)
		}
	}

	// Recovered order must be identical on every reopen: ascending-key
	// push order leaves the largest key at the LRU front.
	var first []string
	for round := 0; round < 5; round++ {
		s2 := openTest(t, dir, nil)
		keys := s2.Keys()
		if len(keys) != n {
			t.Fatalf("round %d: recovered %d entries, want %d", round, len(keys), n)
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] < keys[i] {
				t.Fatalf("round %d: recovered order not key-descending at %d: %v", round, i, keys)
			}
		}
		if first == nil {
			first = keys
			continue
		}
		for i := range keys {
			if keys[i] != first[i] {
				t.Fatalf("round %d: recovery order changed: %v vs %v", round, keys, first)
			}
		}
	}

	// A shrunken budget at reopen must always evict the same victims: the
	// smallest keys of the equal-mtime batch sit at the LRU back. Each
	// round seeds an identical fresh directory so rounds are independent.
	const keep = 3
	for round := 0; round < 5; round++ {
		rdir := t.TempDir()
		rs := openTest(t, rdir, nil)
		for i := 0; i < n; i++ {
			mustPut(t, rs, key(i), []byte("p"))
		}
		for i := 0; i < n; i++ {
			if err := os.Chtimes(filepath.Join(rdir, key(i)+entrySuffix), stamp, stamp); err != nil {
				t.Fatal(err)
			}
		}
		s3 := openTest(t, rdir, func(o *Options) { o.MaxBytes = keep * perEntry })
		if s3.Len() != keep {
			t.Fatalf("round %d: kept %d entries, want %d", round, s3.Len(), keep)
		}
		for i := 0; i < n-keep; i++ {
			if _, ok, _ := s3.Get(key(i)); ok {
				t.Fatalf("round %d: expected victim %s survived recovery eviction", round, key(i))
			}
		}
		for i := n - keep; i < n; i++ {
			if _, ok, _ := s3.Get(key(i)); !ok {
				t.Fatalf("round %d: expected survivor %s was evicted", round, key(i))
			}
		}
	}
}

// FuzzStoreEntry writes an arbitrary blob as the one entry of a store
// directory, then opens the store and reads the entry's key. Neither may
// panic or fail, and Get either serves a payload whose entry is byte for
// byte what Put writes for it, header included, or quarantines the entry
// and misses. The seed corpus holds a good entry, a torn write, a bad
// magic, a wrong key, a negative length and a flipped checksum digit.
func FuzzStoreEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, versionFile), []byte(testVersion+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key(1)+entrySuffix), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openTest(t, dir, nil)
		payload, ok, err := s.Get(key(1))
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if ok {
			if entry := s.header(key(1), payload) + string(payload); entry != string(blob) {
				t.Fatalf("served %q from entry %q, whose canonical form is %q", payload, blob, entry)
			}
			return
		}
		if q := s.Stats().Quarantined; q != 1 {
			t.Fatalf("entry %q missed with %d quarantined, want 1", blob, q)
		}
		if _, ok, _ := s.Get(key(1)); ok {
			t.Fatalf("quarantined entry %q served on a second read", blob)
		}
	})
}
