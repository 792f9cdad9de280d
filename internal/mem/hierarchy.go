package mem

import (
	"fmt"

	"informing/internal/obs"
	"informing/internal/stats"
)

// HierConfig describes a two-level data hierarchy (Table 1).
type HierConfig struct {
	L1 CacheConfig
	L2 CacheConfig
}

// Hierarchy is the architectural (tag-state) view of the two-level data
// cache hierarchy. ProbeData implements the interp.Probe contract: look up
// L1 then L2, allocate on miss at both levels, and report the level that
// satisfied the access.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache

	// Per-level architectural counters.
	L1Misses uint64
	L2Misses uint64
	Refs     uint64

	// Obs, when non-nil, receives the per-level reference distribution
	// (obs.Sim.Levels) via FlushObs: the hierarchy is the single place
	// every architectural probe funnels through (the engines' ordinary
	// references, FlushEvery wrappers and the §3.3 speculative-inject
	// probes alike), so its Refs/L1Misses/L2Misses counters already hold
	// the distribution and ProbeData itself needs no extra work — the
	// engines flush deltas on their coarse observability cadence
	// (DESIGN.md §11 overhead contract).
	Obs *obs.Sim

	// prev* are the counter values at the last FlushObs.
	prevRefs, prevL1M, prevL2M uint64
	prevT1, prevT2             stats.MissClasses
}

// FlushObs pushes the per-level reference counts accumulated since the
// last flush to the attached obs.Sim as deltas (safe for sweeps sharing
// one Sim across hierarchies). A no-op without an attached Sim.
func (h *Hierarchy) FlushObs() {
	if h.Obs == nil {
		return
	}
	refs, l1m, l2m := h.Refs, h.L1Misses, h.L2Misses
	h.Obs.Levels[1].Add((refs - h.prevRefs) - (l1m - h.prevL1M))
	h.Obs.Levels[2].Add((l1m - h.prevL1M) - (l2m - h.prevL2M))
	h.Obs.Levels[3].Add(l2m - h.prevL2M)
	h.prevRefs, h.prevL1M, h.prevL2M = refs, l1m, l2m
	t1, t2 := h.L1.Taxonomy(), h.L2.Taxonomy()
	h.Obs.AddMissClasses(1, t1.Sub(h.prevT1))
	h.Obs.AddMissClasses(2, t2.Sub(h.prevT2))
	h.prevT1, h.prevT2 = t1, t2
}

// NewHierarchy builds the hierarchy, rejecting invalid level
// configurations with an error. The online miss taxonomy (DESIGN.md §17)
// is enabled on both data levels: classification is observation-only, so
// the hierarchy's hit/miss/LRU behaviour stays bit-identical to an
// unclassified one.
func NewHierarchy(cfg HierConfig) (*Hierarchy, error) {
	l1, err := NewCache(cfg.L1)
	if err != nil {
		return nil, fmt.Errorf("L1: %w", err)
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	l1.EnableTaxonomy()
	l2.EnableTaxonomy()
	return &Hierarchy{L1: l1, L2: l2}, nil
}

// ProbeData resolves one data reference and returns the satisfying level
// (1 = L1, 2 = L2, 3 = memory), updating tag/LRU state with
// allocate-on-miss at both levels.
//
// The fast path checks the L1 way memo first, under every replacement
// policy: a reference to the last-hit or last-filled L1 line resolves to
// LevelL1 after a single compare, with the side effects the full lookup
// would have (Accesses, the LRU stamp or the policy's Touch, the
// classifier's hit). Direct mutations of L1 (Invalidate, Flush) clear the
// memo, so the fast path can never claim a hit on an absent line.
func (h *Hierarchy) ProbeData(addr uint64, write bool) int {
	l1 := h.L1
	tag := addr >> l1.lineShift
	h.Refs++
	if l1.memoOK && l1.memoLine == tag {
		l1.memoHit(tag, write)
		return 1
	}
	if hit, _, _ := l1.accessSlow(tag, write); hit {
		return 1
	}
	h.L1Misses++
	if hit, _, _ := h.L2.Access(addr, write); hit {
		return 2
	}
	h.L2Misses++
	return 3
}

// SpeculativeInvalidate implements the paper's §3.3 squash path: the line
// filled by a squashed speculative informing load is removed from the
// primary cache. The data commonly remains in the secondary cache, so the
// squashed miss acted as an L2 prefetch.
func (h *Hierarchy) SpeculativeInvalidate(addr uint64) bool {
	return h.L1.Invalidate(addr)
}
