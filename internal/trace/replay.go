package trace

import (
	"context"
	"errors"
	"fmt"
	"io"

	"informing/internal/govern"
	"informing/internal/mem"
	"informing/internal/stats"
)

// MaxTids bounds the number of distinct thread ids a replay will build
// hierarchies for; beyond it the trace is rejected rather than letting
// hostile input allocate unbounded cache state.
const MaxTids = 64

// ReplayConfig parameterises a trace replay.
type ReplayConfig struct {
	// Hier is the hierarchy geometry to replay through. Reconciling
	// against an originating run requires the same geometry that run used
	// (e.g. ooo.DefaultConfig().Hier).
	Hier mem.HierConfig

	// Reader is the parsing policy (sampled refusal).
	Reader ReaderConfig

	// Ctx cancels a long replay; nil means context.Background(). The
	// returned error wraps govern.ErrCanceled.
	Ctx context.Context

	// MaxRefs bounds the number of memory references replayed (0 =
	// unlimited). Exceeding it aborts with an error wrapping
	// govern.ErrBudget.
	MaxRefs uint64
}

// SegmentResult is the replay outcome of one trace segment (each segment
// replays through fresh hierarchy state: concatenated sweep traces are
// independent workloads).
type SegmentResult struct {
	Events uint64 // events consumed, including non-memory
	Refs   uint64 // memory references replayed
	Loads  uint64 // loads + prefetches
	Stores uint64

	L1Misses uint64
	L2Misses uint64

	// LevelMismatches counts references whose replayed level differs from
	// the recorded one. Zero for a faithful closed-loop replay (same
	// geometry, full trace, uniprocessor); nonzero is expected when
	// replaying under a different geometry, a sampled trace, or a
	// multiprocessor trace whose recording didn't model coherence.
	LevelMismatches uint64

	// Tids is the number of distinct thread ids, Invalidations the lines
	// removed from other threads' caches by stores (coherence replay).
	Tids          int
	Invalidations uint64

	// L1Tax/L2Tax break the replayed misses down by cause (DESIGN.md
	// §17), summed across the segment's per-tid hierarchies; cross-thread
	// store invalidations attribute to the coherence class. The classes
	// sum to L1Misses/L2Misses.
	L1Tax, L2Tax stats.MissClasses
}

func (s *SegmentResult) add(o SegmentResult) {
	s.Events += o.Events
	s.Refs += o.Refs
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.L1Misses += o.L1Misses
	s.L2Misses += o.L2Misses
	s.LevelMismatches += o.LevelMismatches
	s.Invalidations += o.Invalidations
	s.L1Tax = s.L1Tax.Add(o.L1Tax)
	s.L2Tax = s.L2Tax.Add(o.L2Tax)
	if o.Tids > s.Tids {
		s.Tids = o.Tids
	}
}

// ReplayResult is the aggregate outcome: totals across segments plus the
// per-segment breakdown.
type ReplayResult struct {
	Total    SegmentResult
	Segments []SegmentResult
}

// Reconcile checks the closed-loop contract against the originating
// run's counters: per-level references and misses must match exactly.
// A nil error is the acceptance proof that the trace carries the run's
// complete memory behavior.
func (r *ReplayResult) Reconcile(run stats.Run) error {
	var errs []error
	check := func(name string, got, want uint64) {
		if got != want {
			errs = append(errs, fmt.Errorf("%s: replay %d, run %d (delta %+d)", name, got, want, int64(got)-int64(want)))
		}
	}
	check("mem refs", r.Total.Refs, run.MemRefs)
	check("L1 misses", r.Total.L1Misses, run.L1Misses)
	check("L2 misses", r.Total.L2Misses, run.L2Misses)
	// The miss taxonomy must replay delta-0 too — same stream, same
	// classifier state. Runs recorded before the taxonomy existed carry
	// all-zero classes and are exempt (their trace still reconciles the
	// raw counters above).
	if run.L1Tax.Total() != 0 || run.L2Tax.Total() != 0 {
		check("L1 compulsory", r.Total.L1Tax.Compulsory, run.L1Tax.Compulsory)
		check("L1 capacity", r.Total.L1Tax.Capacity, run.L1Tax.Capacity)
		check("L1 conflict", r.Total.L1Tax.Conflict, run.L1Tax.Conflict)
		check("L1 coherence", r.Total.L1Tax.Coherence, run.L1Tax.Coherence)
		check("L2 compulsory", r.Total.L2Tax.Compulsory, run.L2Tax.Compulsory)
		check("L2 capacity", r.Total.L2Tax.Capacity, run.L2Tax.Capacity)
		check("L2 conflict", r.Total.L2Tax.Conflict, run.L2Tax.Conflict)
		check("L2 coherence", r.Total.L2Tax.Coherence, run.L2Tax.Coherence)
	}
	if r.Total.LevelMismatches != 0 {
		errs = append(errs, fmt.Errorf("per-reference levels: %d mismatches", r.Total.LevelMismatches))
	}
	if len(errs) != 0 {
		return fmt.Errorf("trace: reconcile failed: %w", errors.Join(errs...))
	}
	return nil
}

// replayer drives per-tid hierarchies over one segment at a time. Each
// tid's hierarchy has one L1 and one or more L2s: the first is the
// hierarchy's own, driven through ProbeData, and every other one (an
// l2Lane) is fed exactly the references ProbeData sent to the first (the
// L1 misses) plus the same coherence invalidations. The hierarchy is
// non-inclusive and the L2 never invalidates the L1, so the L1's
// behaviour does not depend on which L2 sits below it, and one pass gives
// every lane the result a replay through its own hierarchy would.
type replayer struct {
	cfg ReplayConfig
	gov *govern.Governor

	// Per-tid hierarchy state for the current segment. tids preserves
	// first-appearance order; hiers is parallel to it.
	tids  []int32
	hiers []*mem.Hierarchy

	// lanes are the L2s beyond the first, each with its own result.
	lanes []*l2Lane

	// res and seg are the first L2's result; seg's L1 and reference
	// counters are shared by every lane.
	res     ReplayResult
	seg     SegmentResult
	inSeg   bool
	allRefs uint64

	// l1Inv is the part of seg.Invalidations the L1s made, which every
	// lane shares.
	l1Inv uint64
}

// l2Lane is one more L2 geometry under the replayer's L1.
type l2Lane struct {
	cfg    mem.CacheConfig
	caches []*mem.Cache // parallel to replayer.tids

	// seg holds only this L2's counters: L2Misses, LevelMismatches and
	// its own Invalidations. endSegment fills in the rest.
	seg SegmentResult
	res ReplayResult
}

func newReplayer(cfg ReplayConfig, l2s []mem.CacheConfig) *replayer {
	rp := &replayer{
		cfg: cfg,
		gov: govern.New(govern.Config{
			Ctx:            cfg.Ctx,
			MaxInsts:       cfg.MaxRefs,
			WatchdogCycles: -1,
		}),
	}
	for _, c := range l2s {
		rp.lanes = append(rp.lanes, &l2Lane{cfg: c})
	}
	return rp
}

// hier returns tid's hierarchy and its index in rp.tids, building both
// it and its lanes' L2s on first sight.
func (rp *replayer) hier(tid int32) (*mem.Hierarchy, int, error) {
	for i, t := range rp.tids {
		if t == tid {
			return rp.hiers[i], i, nil
		}
	}
	if len(rp.tids) >= MaxTids {
		return nil, 0, fmt.Errorf("trace: more than %d distinct tids", MaxTids)
	}
	h, err := mem.NewHierarchy(rp.cfg.Hier)
	if err != nil {
		return nil, 0, fmt.Errorf("trace: replay hierarchy: %w", err)
	}
	for _, l := range rp.lanes {
		c, err := mem.NewCache(l.cfg)
		if err != nil {
			return nil, 0, fmt.Errorf("trace: replay hierarchy: L2: %w", err)
		}
		c.EnableTaxonomy()
		l.caches = append(l.caches, c)
	}
	rp.tids = append(rp.tids, tid)
	rp.hiers = append(rp.hiers, h)
	return h, len(rp.tids) - 1, nil
}

// beginSegment closes the current segment (if any) and starts the next
// with fresh hierarchy state.
func (rp *replayer) beginSegment() {
	rp.endSegment()
	rp.inSeg = true
}

func (rp *replayer) endSegment() {
	if !rp.inSeg {
		return
	}
	for _, h := range rp.hiers {
		rp.seg.L1Tax = rp.seg.L1Tax.Add(h.L1.Taxonomy())
		rp.seg.L2Tax = rp.seg.L2Tax.Add(h.L2.Taxonomy())
	}
	rp.seg.Tids = len(rp.tids)
	if rp.seg.Tids == 0 {
		// A segment with zero memory references still existed.
		rp.seg.Tids = 1
	}
	for _, l := range rp.lanes {
		seg := rp.seg
		seg.L2Misses, seg.LevelMismatches, seg.Invalidations = l.seg.L2Misses, l.seg.LevelMismatches, rp.l1Inv+l.seg.Invalidations
		seg.L2Tax = stats.MissClasses{}
		for _, c := range l.caches {
			seg.L2Tax = seg.L2Tax.Add(c.Taxonomy())
		}
		l.res.Segments = append(l.res.Segments, seg)
		l.res.Total.add(seg)
		l.seg = SegmentResult{}
		clear(l.caches)
		l.caches = l.caches[:0]
	}
	rp.res.Segments = append(rp.res.Segments, rp.seg)
	rp.res.Total.add(rp.seg)
	rp.seg = SegmentResult{}
	rp.l1Inv = 0
	clear(rp.hiers) // the next segment starts cold; let these go
	rp.tids = rp.tids[:0]
	rp.hiers = rp.hiers[:0]
	rp.inSeg = false
}

// ref replays one memory reference. recorded is the trace's level (0 to
// skip the mismatch check — Data always records it).
func (rp *replayer) ref(r Ref) error {
	rp.allRefs++
	if rp.cfg.MaxRefs != 0 && rp.allRefs > rp.cfg.MaxRefs {
		return fmt.Errorf("trace: %w: replay budget %d references", govern.ErrBudget, rp.cfg.MaxRefs)
	}
	if err := rp.gov.Tick(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	h, ti, err := rp.hier(r.Tid)
	if err != nil {
		return err
	}
	level := h.ProbeData(r.Addr, r.Store)
	rp.seg.Refs++
	if r.Store {
		rp.seg.Stores++
		// User-level invalidation coherence (the multiprocessor model's
		// protocol): a store removes the line from every other thread's
		// hierarchy, so their next reference misses — the informing
		// mechanism the paper's §5 protocol observes.
		for i, t := range rp.tids {
			if t == r.Tid {
				continue
			}
			o := rp.hiers[i]
			if o.L1.InvalidateCoherence(r.Addr) {
				rp.seg.Invalidations++
				rp.l1Inv++
			}
			if o.L2.InvalidateCoherence(r.Addr) {
				rp.seg.Invalidations++
			}
		}
	} else {
		rp.seg.Loads++
	}
	switch level {
	case 2:
		rp.seg.L1Misses++
	case 3:
		rp.seg.L1Misses++
		rp.seg.L2Misses++
	}
	if r.Level != 0 && int(r.Level) != level {
		rp.seg.LevelMismatches++
	}
	if len(rp.lanes) != 0 {
		rp.feedLanes(r, ti, level)
	}
	return nil
}

// feedLanes gives each lane what ProbeData gave the first L2 for r: the
// access when the L1 missed (level > 1), and the invalidations a store
// makes in the other tids' L2s.
func (rp *replayer) feedLanes(r Ref, ti, level int) {
	for _, l := range rp.lanes {
		if r.Store {
			for i, t := range rp.tids {
				if t != r.Tid && l.caches[i].InvalidateCoherence(r.Addr) {
					l.seg.Invalidations++
				}
			}
		}
		lv := level
		if level != 1 {
			lv = 2
			if hit, _, _ := l.caches[ti].Access(r.Addr, r.Store); !hit {
				l.seg.L2Misses++
				lv = 3
			}
		}
		if r.Level != 0 && int(r.Level) != lv {
			l.seg.LevelMismatches++
		}
	}
}

// run replays one run of a segment's references; newSegment starts the
// segment, and events counts the run's events, memory or not.
func (rp *replayer) run(newSegment bool, refs []Ref, events uint64) error {
	if newSegment {
		rp.beginSegment()
	}
	rp.seg.Events += events
	for _, r := range refs {
		if err := rp.ref(r); err != nil {
			return err
		}
	}
	return nil
}

// finish closes the last segment and returns copies of the results, the
// first L2's then each lane's, so a caller that keeps one (informd caches
// replays) does not keep the replayer alive.
func (rp *replayer) finish() []*ReplayResult {
	rp.endSegment()
	res := rp.res
	out := []*ReplayResult{&res}
	for _, l := range rp.lanes {
		res := l.res
		out = append(out, &res)
	}
	return out
}

// Replay streams a JSONL trace from r through the configured hierarchy
// model and returns the per-level outcome. The trace is never held in
// memory: it is parsed in blocks of about 1 MiB, at most GOMAXPROCS+1 of
// them alive at once, and their buffers are reused. Beyond that, memory
// is the per-tid hierarchy state of the current segment, which the
// result does not reference.
func Replay(r io.Reader, cfg ReplayConfig) (*ReplayResult, error) {
	rp := newReplayer(cfg, nil)
	if _, _, err := parse(r, cfg.Reader, rp.run); err != nil {
		return nil, err
	}
	return rp.finish()[0], nil
}

// ReplayData replays an already loaded trace. Data can be replayed many
// times under different geometries; each call starts from cold caches.
func ReplayData(d *Data, cfg ReplayConfig) (*ReplayResult, error) {
	res, err := ReplayShared(d, []mem.HierConfig{cfg.Hier}, cfg)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// ReplayShared replays a loaded trace through several hierarchies that
// share one L1 geometry, in one pass: the L1 runs once per tid and every
// L2 gets its miss stream. Result i is exactly what ReplayData returns
// for hiers[i] (cfg.Hier is not consulted). It rejects an empty list and
// hierarchies whose L1s differ; any error aborts every hierarchy's
// replay, as it would abort each one alone.
func ReplayShared(d *Data, hiers []mem.HierConfig, cfg ReplayConfig) ([]*ReplayResult, error) {
	if len(hiers) == 0 {
		return nil, errors.New("trace: shared replay: no hierarchies")
	}
	var l2s []mem.CacheConfig
	for i, h := range hiers[1:] {
		if h.L1 != hiers[0].L1 {
			return nil, fmt.Errorf("trace: shared replay: hierarchy %d's L1 %+v differs from hierarchy 0's %+v", i+1, h.L1, hiers[0].L1)
		}
		l2s = append(l2s, h.L2)
	}
	cfg.Hier = hiers[0]
	rp := newReplayer(cfg, l2s)
	for i, start := range d.SegStart {
		end := len(d.Refs)
		if i+1 < len(d.SegStart) {
			end = d.SegStart[i+1]
		}
		var events uint64
		if i < len(d.SegEvents) {
			events = d.SegEvents[i]
		}
		if err := rp.run(true, d.Refs[start:end], events); err != nil {
			return nil, err
		}
	}
	return rp.finish(), nil
}
