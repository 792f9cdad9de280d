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

// DefaultMaxTids bounds the number of distinct thread ids a replay will
// build hierarchies for; beyond it the trace is rejected rather than
// letting hostile input allocate unbounded cache state.
const DefaultMaxTids = 64

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

	// MaxTids bounds distinct thread ids (0 = DefaultMaxTids).
	MaxTids int
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

// replayer drives per-tid hierarchies over one segment at a time.
type replayer struct {
	cfg     ReplayConfig
	gov     *govern.Governor
	maxTids int

	// Per-tid hierarchy state for the current segment. tids preserves
	// first-appearance order; hiers is parallel to it.
	tids  []int32
	hiers []*mem.Hierarchy

	res     ReplayResult
	seg     SegmentResult
	inSeg   bool
	allRefs uint64
}

func newReplayer(cfg ReplayConfig) *replayer {
	maxTids := cfg.MaxTids
	if maxTids <= 0 {
		maxTids = DefaultMaxTids
	}
	return &replayer{
		cfg: cfg,
		gov: govern.New(govern.Config{
			Ctx:            cfg.Ctx,
			MaxInsts:       cfg.MaxRefs,
			WatchdogCycles: -1,
		}),
		maxTids: maxTids,
	}
}

func (rp *replayer) hier(tid int32) (*mem.Hierarchy, error) {
	for i, t := range rp.tids {
		if t == tid {
			return rp.hiers[i], nil
		}
	}
	if len(rp.tids) >= rp.maxTids {
		return nil, fmt.Errorf("trace: more than %d distinct tids", rp.maxTids)
	}
	h, err := mem.NewHierarchy(rp.cfg.Hier)
	if err != nil {
		return nil, fmt.Errorf("trace: replay hierarchy: %w", err)
	}
	rp.tids = append(rp.tids, tid)
	rp.hiers = append(rp.hiers, h)
	return h, nil
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
	rp.res.Segments = append(rp.res.Segments, rp.seg)
	rp.res.Total.add(rp.seg)
	rp.seg = SegmentResult{}
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
	h, err := rp.hier(r.Tid)
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
	return nil
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

// finish closes the last segment and returns a copy of the result, so a
// caller that keeps it (informd caches replays) does not keep the
// replayer alive.
func (rp *replayer) finish() *ReplayResult {
	rp.endSegment()
	res := rp.res
	return &res
}

// Replay streams a JSONL trace from r through the configured hierarchy
// model and returns the per-level outcome. The trace is never held in
// memory: it is parsed in blocks of about 1 MiB, at most GOMAXPROCS+1 of
// them alive at once, and their buffers are reused. Beyond that, memory
// is the per-tid hierarchy state of the current segment, which the
// result does not reference.
func Replay(r io.Reader, cfg ReplayConfig) (*ReplayResult, error) {
	rp := newReplayer(cfg)
	if _, _, err := parse(r, cfg.Reader, rp.run); err != nil {
		return nil, err
	}
	return rp.finish(), nil
}

// ReplayData replays an already loaded trace. Data can be replayed many
// times under different geometries (the experiments sweep does exactly
// that); each call starts from cold caches.
func ReplayData(d *Data, cfg ReplayConfig) (*ReplayResult, error) {
	rp := newReplayer(cfg)
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
