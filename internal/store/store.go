// Package store is the durable, crash-safe result store behind informd's
// in-memory LRU (internal/serve). It maps the serving layer's canonical
// request fingerprints to opaque result payloads and holds them on disk so
// a restarted (or rescheduled) daemon starts warm instead of re-simulating
// its whole working set.
//
// The design center is "never serve a wrong table". Concretely:
//
//   - every entry is written to a temp file and atomically renamed into
//     place, so a crash mid-write leaves a stray .tmp (cleaned on open),
//     never a half-entry under a valid name;
//   - every entry carries a header with the store format, the simulator
//     code version, its own key and payload length, and a SHA-256 checksum
//     of the payload; Get verifies all of it before returning bytes;
//   - anything that fails verification — torn write, flipped bit, wrong
//     key, stale version — is quarantined (moved aside for post-mortem,
//     never deleted silently) and reported as a miss, so the serving layer
//     recomputes: detect, quarantine, recompute;
//   - the store is opened against a version string (serve.CodeVersion);
//     a version change empties the store on open, because results computed
//     by a different simulator build must never be replayed;
//   - total size is bounded: inserts evict least-recently-used entries
//     (access order is maintained in memory and persisted best-effort via
//     file mtimes, so it survives restarts approximately).
//
// I/O goes through the FS interface so internal/faults can inject ENOSPC,
// torn writes, bit flips and slow I/O underneath it (the chaos lane).
// Verification failures are handled internally as misses; only real I/O
// errors escape to the caller, which is the serving layer's signal to
// degrade to RAM-only operation.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	magic         = "informd-store"
	formatVersion = 1

	entrySuffix   = ".res"
	tmpSuffix     = ".tmp"
	versionFile   = "VERSION"
	quarantineDir = "quarantine"

	// DefaultMaxBytes bounds the store when Options.MaxBytes is zero.
	DefaultMaxBytes = 256 << 20
)

// FS is the filesystem slice the store needs. faults.FaultyFS implements
// it structurally; OSFS is the real thing.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Chtimes(name string, atime, mtime time.Time) error
}

// OSFS is the passthrough FS.
type OSFS struct{}

func (OSFS) MkdirAll(path string, perm os.FileMode) error      { return os.MkdirAll(path, perm) }
func (OSFS) ReadDir(name string) ([]os.DirEntry, error)        { return os.ReadDir(name) }
func (OSFS) ReadFile(name string) ([]byte, error)              { return os.ReadFile(name) }
func (OSFS) WriteFile(n string, d []byte, p os.FileMode) error { return os.WriteFile(n, d, p) }
func (OSFS) Rename(oldpath, newpath string) error              { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                          { return os.Remove(name) }
func (OSFS) Chtimes(n string, a, m time.Time) error            { return os.Chtimes(n, a, m) }

// Options parameterise Open.
type Options struct {
	// Dir is the store directory (created if absent). Required.
	Dir string

	// Version names the simulator semantics the stored results are valid
	// for (serve.CodeVersion). Opening a store written under a different
	// version empties it. Required.
	Version string

	// MaxBytes bounds the total payload+header bytes on disk (0 =
	// DefaultMaxBytes). Inserts evict LRU entries to stay under it; an
	// entry larger than the bound is not stored at all.
	MaxBytes int64

	// FS overrides the filesystem (nil = OSFS{}). The chaos lane passes a
	// faults.FaultyFS here.
	FS FS

	// Logf, when non-nil, receives recovery and quarantine notices.
	Logf func(format string, args ...any)
}

// Stats counts what the store did since Open.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Writes      uint64
	Evictions   uint64
	Quarantined uint64 // entries that failed verification and were moved aside
	Purged      uint64 // entries dropped by version invalidation on open
}

type entry struct {
	key  string
	size int64
}

// Store is a fingerprint-keyed durable result store. All methods are safe
// for concurrent use; I/O is serialized under one mutex (entries are small
// and the serving layer's RAM cache absorbs the hot path).
type Store struct {
	mu    sync.Mutex
	opts  Options
	fs    FS
	m     map[string]*list.Element
	ll    *list.List // front = most recently used
	bytes int64
	stats Stats
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Open opens (creating if needed) the store at opts.Dir, recovering its
// index from the entry files present: stray temp files are removed, a
// version mismatch empties the store, and the surviving entries are
// ordered oldest-first by mtime so eviction stays LRU across restarts.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: no directory")
	}
	if opts.Version == "" {
		return nil, fmt.Errorf("store: no version string")
	}
	if strings.ContainsAny(opts.Version, " \n") {
		return nil, fmt.Errorf("store: version %q may not contain spaces or newlines", opts.Version)
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	}
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	s := &Store{
		opts: opts,
		fs:   opts.FS,
		m:    map[string]*list.Element{},
		ll:   list.New(),
	}
	if err := s.fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover scans the directory, applies version invalidation, and rebuilds
// the LRU index.
func (s *Store) recover() error {
	verPath := filepath.Join(s.opts.Dir, versionFile)
	verBytes, err := s.fs.ReadFile(verPath)
	haveVersion := err == nil
	versionOK := haveVersion && strings.TrimSpace(string(verBytes)) == s.opts.Version

	ents, err := s.fs.ReadDir(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", s.opts.Dir, err)
	}
	type found struct {
		key   string
		size  int64
		mtime time.Time
	}
	var entries []found
	for _, de := range ents {
		name := de.Name()
		full := filepath.Join(s.opts.Dir, name)
		switch {
		case de.IsDir():
			continue
		case strings.HasSuffix(name, tmpSuffix):
			// A crash between write and rename: the entry never became
			// visible, the temp is garbage.
			_ = s.fs.Remove(full)
		case strings.HasSuffix(name, entrySuffix):
			key := strings.TrimSuffix(name, entrySuffix)
			if !validKey(key) {
				s.quarantineFile(full, name)
				continue
			}
			if !versionOK {
				// Results from another simulator build (or an unversioned
				// directory) must never be replayed.
				_ = s.fs.Remove(full)
				s.stats.Purged++
				continue
			}
			fi, err := de.Info()
			if err != nil {
				continue
			}
			entries = append(entries, found{key: key, size: fi.Size(), mtime: fi.ModTime()})
		}
	}
	if !versionOK {
		if err := s.writeAtomic(verPath, []byte(s.opts.Version+"\n")); err != nil {
			return fmt.Errorf("store: write version: %w", err)
		}
		if s.stats.Purged > 0 {
			s.logf("store: version changed, purged %d stale entries", s.stats.Purged)
		}
		return nil
	}
	// Oldest first, so PushFront leaves the most recent at the LRU front.
	// Equal mtimes are common in practice (coarse filesystem timestamp
	// granularity, entries batch-written within one tick), and sort.Slice
	// is unstable, so ordering — and therefore which entry a recovery-time
	// eviction removes — would otherwise vary run to run. The key tie-break
	// makes recovery order, and the eviction victims, deterministic.
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].key < entries[j].key
	})
	for _, e := range entries {
		s.m[e.key] = s.ll.PushFront(&entry{key: e.key, size: e.size})
		s.bytes += e.size
	}
	// The bound may have shrunk since the entries were written.
	if err := s.evictUntil(s.opts.MaxBytes); err != nil {
		return fmt.Errorf("store: recovery eviction: %w", err)
	}
	if n := len(s.m); n > 0 {
		s.logf("store: recovered %d entries (%d bytes) from %s", n, s.bytes, s.opts.Dir)
	}
	return nil
}

func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func (s *Store) entryPath(key string) string {
	return filepath.Join(s.opts.Dir, key+entrySuffix)
}

// header builds the verification line preceding the payload.
func (s *Store) header(key string, payload []byte) string {
	sum := sha256.Sum256(payload)
	return fmt.Sprintf("%s %d %s %s %d %s\n",
		magic, formatVersion, s.opts.Version, key, len(payload), hex.EncodeToString(sum[:]))
}

// writeAtomic writes data to path via temp-file + rename. The temp lives
// in the same directory so the rename is atomic on POSIX filesystems.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp := path + tmpSuffix
	if err := s.fs.WriteFile(tmp, data, 0o644); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		_ = s.fs.Remove(tmp)
		return err
	}
	return nil
}

// Get returns the payload stored under key. A missing or
// failed-verification entry is (nil, false, nil) — the caller recomputes.
// A non-nil error means the filesystem itself failed (the degrade signal).
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		s.stats.Misses++
		return nil, false, nil
	}
	path := s.entryPath(key)
	blob, err := s.fs.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			// Removed behind our back; treat as a miss, fix the index.
			s.dropIndex(el)
			s.stats.Misses++
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: read %s: %w", key, err)
	}
	payload, verr := s.verify(key, blob)
	if verr != nil {
		s.logf("store: quarantining %s: %v", key, verr)
		s.dropIndex(el)
		s.quarantineFile(path, key+entrySuffix)
		s.stats.Misses++
		return nil, false, nil
	}
	s.ll.MoveToFront(el)
	// Persist the access best-effort so LRU order survives restarts.
	now := time.Now()
	_ = s.fs.Chtimes(path, now, now)
	s.stats.Hits++
	return payload, true, nil
}

// verify checks blob's header against key and returns the payload. The
// entry must be byte for byte what Put writes for that payload.
func (s *Store) verify(key string, blob []byte) ([]byte, error) {
	nl := strings.IndexByte(string(blob[:min(len(blob), 256)]), '\n')
	if nl < 0 {
		return nil, fmt.Errorf("no header line")
	}
	fields := strings.Fields(string(blob[:nl]))
	if len(fields) != 6 {
		return nil, fmt.Errorf("header has %d fields, want 6", len(fields))
	}
	if fields[0] != magic {
		return nil, fmt.Errorf("bad magic %q", fields[0])
	}
	if fields[1] != strconv.Itoa(formatVersion) {
		return nil, fmt.Errorf("format version %q, want %d", fields[1], formatVersion)
	}
	if fields[2] != s.opts.Version {
		return nil, fmt.Errorf("code version %q, want %q", fields[2], s.opts.Version)
	}
	if fields[3] != key {
		return nil, fmt.Errorf("entry is keyed %q", fields[3])
	}
	wantLen, err := strconv.Atoi(fields[4])
	if err != nil {
		return nil, fmt.Errorf("bad payload length %q", fields[4])
	}
	payload := blob[nl+1:]
	if len(payload) != wantLen {
		return nil, fmt.Errorf("payload %d bytes, header says %d (torn write?)", len(payload), wantLen)
	}
	want := s.header(key, payload) // ends in the checksum's 64 hex digits and \n
	if fields[5] != want[len(want)-65:len(want)-1] {
		return nil, fmt.Errorf("checksum mismatch")
	}
	// Only the header Put writes: "+24" for 24 or a doubled space would
	// otherwise pass every check above.
	if string(blob[:nl+1]) != want {
		return nil, fmt.Errorf("header %q is not in canonical form", blob[:nl])
	}
	return payload, nil
}

// Put stores payload under key, evicting LRU entries to respect the size
// bound. An entry that cannot fit at all is skipped without error. A
// non-nil error means the filesystem failed (the degrade signal); the
// index never lists an entry whose write failed.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	hdr := s.header(key, payload)
	size := int64(len(hdr) + len(payload))
	if size > s.opts.MaxBytes {
		s.logf("store: entry %s (%d bytes) above store bound %d, not stored", key, size, s.opts.MaxBytes)
		return nil
	}
	var old int64
	if el, ok := s.m[key]; ok {
		old = el.Value.(*entry).size
	}
	if err := s.evictUntil(s.opts.MaxBytes - size + old); err != nil {
		return err
	}
	blob := make([]byte, 0, size)
	blob = append(blob, hdr...)
	blob = append(blob, payload...)
	if err := s.writeAtomic(s.entryPath(key), blob); err != nil {
		// If the key was indexed, its on-disk state is now unknown (the
		// failed write may have clobbered nothing — temp+rename — but the
		// conservative move is to drop it and let Get re-verify later).
		if el, ok := s.m[key]; ok {
			s.dropIndex(el)
		}
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	if el, ok := s.m[key]; ok {
		s.bytes += size - el.Value.(*entry).size
		el.Value.(*entry).size = size
		s.ll.MoveToFront(el)
	} else {
		s.m[key] = s.ll.PushFront(&entry{key: key, size: size})
		s.bytes += size
	}
	s.stats.Writes++
	return nil
}

// Delete removes key's entry (the serving layer uses it when a verified
// payload fails to decode — a should-not-happen belt-and-braces path).
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return nil
	}
	s.dropIndex(el)
	if err := s.fs.Remove(s.entryPath(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete %s: %w", key, err)
	}
	return nil
}

// evictUntil removes LRU entries until the store holds at most budget
// bytes. Caller holds mu.
func (s *Store) evictUntil(budget int64) error {
	for s.bytes > budget {
		oldest := s.ll.Back()
		if oldest == nil {
			return nil
		}
		e := oldest.Value.(*entry)
		if err := s.fs.Remove(s.entryPath(e.key)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: evict %s: %w", e.key, err)
		}
		s.dropIndex(oldest)
		s.stats.Evictions++
	}
	return nil
}

// dropIndex removes el from the index and size accounting. Caller holds mu.
func (s *Store) dropIndex(el *list.Element) {
	e := el.Value.(*entry)
	s.ll.Remove(el)
	delete(s.m, e.key)
	s.bytes -= e.size
}

// quarantineFile moves a failed-verification file into the quarantine
// subdirectory (falling back to removal if even that fails) so operators
// can post-mortem corrupted entries. Caller holds mu (or is in Open).
func (s *Store) quarantineFile(path, name string) {
	qdir := filepath.Join(s.opts.Dir, quarantineDir)
	if err := s.fs.MkdirAll(qdir, 0o755); err == nil {
		if err := s.fs.Rename(path, filepath.Join(qdir, name)); err == nil {
			s.stats.Quarantined++
			return
		}
	}
	_ = s.fs.Remove(path)
	s.stats.Quarantined++
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes returns the indexed on-disk size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Stats returns the operation counters accumulated since Open.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Keys returns the indexed keys, most recently used first (tests).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry).key)
	}
	return keys
}
