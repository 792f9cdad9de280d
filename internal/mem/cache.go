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
// A way memo (DESIGN.md §10) remembers the most recently hit or filled
// (line, way) so the dominant same-line re-reference takes a single-compare
// fast path instead of the set scan, under every replacement policy.
// Invariant: whenever memoOK is set, ways[memoIdx] is valid and holds tag
// memoLine. Every mutation that could break the invariant — Invalidate,
// Flush, victim replacement — clears or retargets the memo, so a memoized
// hit can never survive an invalidation, and Accesses/Misses and the
// replacement state (LRU stamps or Policy metadata) are bit-identical to
// the unmemoized cache.
type Cache struct {
	cfg       CacheConfig
	lineShift uint
	setMask   uint64
	ways      []way // sets*assoc, set-major

	stamp uint64 // LRU clock

	memoLine uint64 // line address (addr >> lineShift) of the memoized way
	memoIdx  int32  // global way index of the memoized line
	memoOK   bool

	// pol, when non-nil, is the replacement policy the cache was built
	// with; polMeta is its per-way metadata (set-major, parallel to
	// ways). nil pol selects the built-in true-LRU path, which uses
	// way.used/stamp and never consults the seam.
	pol     Policy
	polMeta []uint64

	// tax, when non-nil, classifies every miss online (see Taxonomy).
	tax *Taxonomy

	// Statistics.
	Accesses uint64
	Misses   uint64
}

type way struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64
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
		ways:      make([]way, cfg.Sets()*cfg.Assoc),
		pol:       pol,
	}
	if pol != nil {
		c.polMeta = make([]uint64, cfg.Sets()*cfg.Assoc)
	}
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

func (c *Cache) set(addr uint64) []way {
	s := int(addr >> c.lineShift & c.setMask)
	return c.ways[s*c.cfg.Assoc : (s+1)*c.cfg.Assoc]
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
	w := &c.ways[c.memoIdx]
	if c.pol == nil {
		c.stamp++
		w.used = c.stamp
	} else {
		base := int(tag&c.setMask) * c.cfg.Assoc
		c.pol.Touch(c.polMeta[base:base+c.cfg.Assoc], int(c.memoIdx)-base)
	}
	if write {
		w.dirty = true
	}
	if c.tax != nil {
		c.tax.hit(tag, int(c.memoIdx))
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
	base := int(tag&c.setMask) * c.cfg.Assoc
	set := c.ways[base : base+c.cfg.Assoc]
	c.stamp++
	victim, invalidFound := 0, false
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			w.used = c.stamp
			if write {
				w.dirty = true
			}
			c.memoLine, c.memoIdx, c.memoOK = tag, int32(base+i), true
			if c.tax != nil {
				c.tax.hit(tag, base+i)
			}
			return true, 0, false
		}
		if !invalidFound {
			if !w.valid {
				victim, invalidFound = i, true
			} else if w.used < set[victim].used {
				victim = i
			}
		}
	}
	c.Misses++
	if c.tax != nil {
		c.tax.miss(tag, base+victim)
	}
	w := &set[victim]
	if w.valid && w.dirty {
		writeback = w.tag << c.lineShift
		wb = true
	}
	*w = way{tag: tag, valid: true, dirty: write, used: c.stamp}
	// Retarget the memo at the freshly filled line: the replacement may
	// just have evicted the memoized line from this very way, and the new
	// line is the MRU re-reference candidate either way.
	c.memoLine, c.memoIdx, c.memoOK = tag, int32(base+victim), true
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
	base := int(tag&c.setMask) * c.cfg.Assoc
	set := c.ways[base : base+c.cfg.Assoc]
	meta := c.polMeta[base : base+c.cfg.Assoc]
	victim, invalidFound := -1, false
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			c.pol.Touch(meta, i)
			if write {
				w.dirty = true
			}
			c.memoLine, c.memoIdx, c.memoOK = tag, int32(base+i), true
			if c.tax != nil {
				c.tax.hit(tag, base+i)
			}
			return true, 0, false
		}
		if !invalidFound && !w.valid {
			victim, invalidFound = i, true
		}
	}
	c.Misses++
	if !invalidFound {
		victim = c.pol.Victim(meta)
		c.pol.Evict(set[victim].tag, meta[victim])
	}
	if c.tax != nil {
		// After victim selection so the classifier can re-aim the way
		// memo at the filled way; the classifier shares no state with
		// the policy, so the move is observation-order neutral.
		c.tax.miss(tag, base+victim)
	}
	w := &set[victim]
	if w.valid && w.dirty {
		writeback = w.tag << c.lineShift
		wb = true
	}
	*w = way{tag: tag, valid: true, dirty: write}
	c.pol.Fill(meta, victim, tag)
	c.memoLine, c.memoIdx, c.memoOK = tag, int32(base+victim), true
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
	for _, w := range c.set(addr) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Invalidate removes addr's line if present and reports whether it was.
// The way memo is cleared when it named the invalidated line, so a
// memoized hit can never survive an invalidation.
func (c *Cache) Invalidate(addr uint64) bool {
	tag := addr >> c.lineShift
	if c.memoOK && c.memoLine == tag {
		c.memoOK = false
		c.ways[c.memoIdx] = way{}
		if c.polMeta != nil {
			c.polMeta[c.memoIdx] = 0
		}
		return true
	}
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i] = way{}
			if c.polMeta != nil {
				c.polMeta[int(addr>>c.lineShift&c.setMask)*c.cfg.Assoc+i] = 0
			}
			return true
		}
	}
	return false
}

// Flush invalidates the entire cache (context switch modelling). The
// taxonomy's fully-associative shadow is flushed alongside, so post-flush
// re-references classify as capacity misses rather than inheriting
// pre-switch recency.
func (c *Cache) Flush() {
	c.memoOK = false
	for i := range c.ways {
		c.ways[i] = way{}
	}
	if c.polMeta != nil {
		for i := range c.polMeta {
			c.polMeta[i] = 0
		}
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
