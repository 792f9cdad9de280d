// Package mem implements the simulated memory hierarchy: set-associative
// LRU caches, a two-level hierarchy with architectural probe semantics,
// and a timing model with lockup-free MSHRs, cache banks, fill occupancy
// and a main-memory bandwidth limiter (parameters from Table 1 of the
// paper). It also implements the paper's §3.3 mechanism: MSHR lifetime
// extension so that fills performed by squashed speculative informing
// loads can be invalidated from the primary cache.
package mem

import "fmt"

// CacheConfig describes one cache. Policy names the replacement policy
// ("" or "lru" for the built-in true-LRU path; "srrip", "brrip", "trrip"
// for the Policy-seam implementations — see NewPolicy). The config stays
// a comparable value type so hierarchy configs remain usable as map keys.
type CacheConfig struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	Policy    string
}

// Sets returns the number of sets implied by the configuration.
func (c CacheConfig) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Validate reports the error NewCache would return for c, without
// building the cache.
func (c CacheConfig) Validate() error {
	switch {
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mem: line size %d not a power of two", c.LineBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("mem: associativity %d invalid", c.Assoc)
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("mem: size %d not divisible by line*assoc", c.SizeBytes)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("mem: set count %d not a power of two", c.Sets())
	}
	return ValidPolicy(c.Policy)
}

// Cache is a set-associative cache with true-LRU replacement. It tracks
// tag state only (the simulator keeps data in isa.DataMem); a dirty bit is
// maintained so write-back traffic can be accounted.
//
// Storage follows the sets a run fills (DESIGN.md §10): the ways live in
// chunks of whole sets, and a chunk is allocated when one of its sets is
// first filled. A missing chunk is exact, not approximate: a set that was
// never filled holds no valid line, so Contains, Invalidate, Flush and
// the set scans read it as all-invalid. Each way carries its replacement
// word (the LRU stamp, or a Policy's word) and the taxonomy's memo, so a
// run that touches twenty lines of a 2 MB cache pays for twenty chunks
// rather than every way.
//
// A way memo (DESIGN.md §10) remembers the most recently hit or filled
// (line, way) so the dominant same-line re-reference takes a single-compare
// fast path instead of the set scan, under every replacement policy.
// Invariant: whenever memoOK is set, *memoWay is valid and holds tag
// memoLine. Every mutation that could break the invariant — Invalidate,
// Flush, victim replacement — clears or retargets the memo, so a memoized
// hit can never survive an invalidation, and Accesses/Misses and the
// replacement state (LRU stamps or Policy words) are bit-identical to the
// unmemoized cache.
type Cache struct {
	cfg        CacheConfig
	lineShift  uint
	setMask    uint64
	chunkShift uint // set index >> chunkShift = chunk index
	chunkSets  int  // sets per chunk, a power of two

	// chunks[i] holds sets i*chunkSets .. (i+1)*chunkSets-1, set-major;
	// it is nil until one of them is first filled.
	chunks [][]way

	stamp uint64 // LRU clock

	memoLine uint64 // line address (addr >> lineShift) of the memoized way
	memoWay  *way
	memoOK   bool

	// pol, when non-nil, is the replacement policy the cache was built
	// with. nil pol selects the built-in true-LRU path, which uses
	// way.meta as a stamp and never consults the seam.
	pol Policy

	// tax, when non-nil, classifies every miss online (see Taxonomy).
	tax *Taxonomy

	// Statistics.
	Accesses uint64
	Misses   uint64
}

// chunkWays is the way count a chunk is sized toward: a chunk holds the
// largest power-of-two number of whole sets that fits in it, or one set
// when a set is larger.
const chunkWays = 64

// way is one cache way. meta is its replacement word: under LRU the stamp
// of its last reference, under a Policy that policy's word. ref is the
// miss taxonomy's memo of the shadow node last associated with the way
// (see Taxonomy); it fills the padding after tag, so a way stays 24
// bytes.
type way struct {
	tag   uint64
	ref   int32
	valid bool
	dirty bool
	meta  uint64
}

// NewCache builds a cache, rejecting invalid configurations with an
// error (the library panic-to-error policy; see DESIGN.md "Robustness
// model").
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	pol, err := NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:       cfg,
		lineShift: shift,
		setMask:   uint64(cfg.Sets() - 1),
		chunkSets: 1,
		pol:       pol,
	}
	for 2*c.chunkSets*cfg.Assoc <= chunkWays && 2*c.chunkSets <= cfg.Sets() {
		c.chunkSets *= 2
		c.chunkShift++
	}
	c.chunks = make([][]way, cfg.Sets()/c.chunkSets)
	return c, nil
}

// MustCache is NewCache that panics on error; for tests and static
// literal configurations only (documented Must* helper).
func MustCache(cfg CacheConfig) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Line returns the line address (addr with the offset bits cleared).
func (c *Cache) Line(addr uint64) uint64 { return addr >> c.lineShift << c.lineShift }

// locate returns the chunk holding tag's set and the index of the set's
// first way in it. Masking the shift count (always below 64) spares every
// set scan the compiler's guard for oversized shifts.
func (c *Cache) locate(tag uint64) (ci, off int) {
	s := int(tag & c.setMask)
	return s >> (c.chunkShift & 63), (s & (c.chunkSets - 1)) * c.cfg.Assoc
}

// fillSet returns tag's set for an access that may fill it, allocating
// the set's chunk when the access is the first to touch it.
func (c *Cache) fillSet(tag uint64) []way {
	ci, off := c.locate(tag)
	ch := c.chunks[ci]
	if ch == nil {
		ch = make([]way, c.chunkSets*c.cfg.Assoc)
		c.chunks[ci] = ch
	}
	return ch[off : off+c.cfg.Assoc]
}

// set returns tag's set, nil when its chunk was never allocated: a set
// that was never filled holds no valid line.
func (c *Cache) set(tag uint64) []way {
	ci, off := c.locate(tag)
	if c.chunks[ci] == nil {
		return nil
	}
	return c.chunks[ci][off : off+c.cfg.Assoc]
}

// Access looks up addr, updating LRU state and allocating the line on a
// miss (write-allocate). It reports whether the access hit and, when an
// eviction of a dirty line occurred, the evicted line address.
func (c *Cache) Access(addr uint64, write bool) (hit bool, writeback uint64, wb bool) {
	tag := addr >> c.lineShift
	if c.memoOK && c.memoLine == tag {
		c.memoHit(tag, write)
		return true, 0, false
	}
	return c.accessSlow(tag, write)
}

// memoHit is the way-memo fast path: a reference to the line the memo
// names (the previous hit or fill) hits its way without a set scan, with
// the same side effects the scan's hit would have — the LRU stamp, or
// the policy's Touch on the memoized way.
func (c *Cache) memoHit(tag uint64, write bool) {
	c.Accesses++
	w := c.memoWay
	if c.pol == nil {
		c.stamp++
		w.meta = c.stamp
	} else {
		c.pol.Touch(&w.meta)
	}
	if write {
		w.dirty = true
	}
	if c.tax != nil {
		c.tax.hit(tag, &w.ref)
	}
}

// accessSlow is the full set scan; a single pass finds the hit way and, in
// the same loop, the replacement victim (first invalid way, else true LRU
// with lowest-index tie break — the same choice the historical two-scan
// code made). Caches built with a non-LRU policy divert to accessPolicy.
func (c *Cache) accessSlow(tag uint64, write bool) (hit bool, writeback uint64, wb bool) {
	if c.pol != nil {
		return c.accessPolicy(tag, write)
	}
	c.Accesses++
	set := c.fillSet(tag)
	c.stamp++
	victim, invalidFound := 0, false
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			w.meta = c.stamp
			if write {
				w.dirty = true
			}
			c.memoLine, c.memoWay, c.memoOK = tag, w, true
			if c.tax != nil {
				c.tax.hit(tag, &w.ref)
			}
			return true, 0, false
		}
		if !invalidFound {
			if !w.valid {
				victim, invalidFound = i, true
			} else if w.meta < set[victim].meta {
				victim = i
			}
		}
	}
	c.Misses++
	w := &set[victim]
	if w.valid && w.dirty {
		writeback = w.tag << c.lineShift
		wb = true
	}
	*w = way{tag: tag, valid: true, dirty: write, meta: c.stamp}
	if c.tax != nil {
		c.tax.miss(tag, &w.ref)
	}
	// Retarget the memo at the freshly filled line: the replacement may
	// just have evicted the memoized line from this very way, and the new
	// line is the MRU re-reference candidate either way.
	c.memoLine, c.memoWay, c.memoOK = tag, w, true
	return false, writeback, wb
}

// accessPolicy is the Policy-seam access path: hit detection and the
// first-invalid fill rule stay in the cache; replacement ordering (Touch/
// Fill/Victim/Evict) belongs to the policy. The way memo is maintained
// with the same invariant as the LRU path — the memoized (line, way)
// always names a valid resident line — so the memo paths of Access,
// ProbeData and Contains stay exact under every policy.
func (c *Cache) accessPolicy(tag uint64, write bool) (hit bool, writeback uint64, wb bool) {
	c.Accesses++
	set := c.fillSet(tag)
	victim, invalidFound := -1, false
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			c.pol.Touch(&w.meta)
			if write {
				w.dirty = true
			}
			c.memoLine, c.memoWay, c.memoOK = tag, w, true
			if c.tax != nil {
				c.tax.hit(tag, &w.ref)
			}
			return true, 0, false
		}
		if !invalidFound && !w.valid {
			victim, invalidFound = i, true
		}
	}
	c.Misses++
	if !invalidFound {
		victim = c.pol.Victim(set)
		c.pol.Evict(set[victim].tag, set[victim].meta)
	}
	w := &set[victim]
	if w.valid && w.dirty {
		writeback = w.tag << c.lineShift
		wb = true
	}
	*w = way{tag: tag, valid: true, dirty: write}
	if c.tax != nil {
		// After the fill so the classifier can re-aim the filled way's
		// memo; the classifier shares no state with the policy, so the
		// move is observation-order neutral.
		c.tax.miss(tag, &w.ref)
	}
	c.pol.Fill(&w.meta, tag)
	c.memoLine, c.memoWay, c.memoOK = tag, w, true
	return false, writeback, wb
}

// Contains reports whether addr's line is present, without updating LRU.
// It consults the way memo first; the memo invariant (see Cache) makes
// that answer exact.
func (c *Cache) Contains(addr uint64) bool {
	tag := addr >> c.lineShift
	if c.memoOK && c.memoLine == tag {
		return true
	}
	for _, w := range c.set(tag) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Invalidate removes addr's line if present and reports whether it was.
// The way memo is cleared when it named the invalidated line, so a
// memoized hit can never survive an invalidation. Clearing the way zeroes
// its replacement word, as the Policy contract requires.
func (c *Cache) Invalidate(addr uint64) bool {
	tag := addr >> c.lineShift
	if c.memoOK && c.memoLine == tag {
		c.memoOK = false
		*c.memoWay = way{}
		return true
	}
	set := c.set(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i] = way{}
			return true
		}
	}
	return false
}

// Flush invalidates the entire cache (context switch modelling). The
// chunks are kept, cleared, for the refills that follow. The taxonomy's
// fully-associative shadow is flushed alongside, so post-flush
// re-references classify as capacity misses rather than inheriting
// pre-switch recency.
func (c *Cache) Flush() {
	c.memoOK = false
	for _, ch := range c.chunks {
		clear(ch)
	}
	if c.tax != nil {
		c.tax.flush()
	}
}

// MissRate returns misses/accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}
