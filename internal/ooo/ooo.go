// Package ooo implements the paper's out-of-order-issue machine model,
// patterned on the MIPS R10000 (§3.2 and Table 1): register renaming, a
// 32-entry reorder buffer, 4-wide fetch and graduation, a limited pool of
// branch shadow states, 2-bit-counter branch prediction, and a lockup-free
// two-level memory system.
//
// Informing memory operations are supported in all three architectural
// modes, and for the low-overhead trap the two hardware strategies the
// paper compares are both modelled:
//
//   - TrapAsBranch: the reference is treated as a reference-plus-branch
//     predicted not-taken; on a miss the handler is fetched as soon as the
//     tag check resolves (fast, but informing references consume branch
//     shadow state);
//   - TrapAsException: the trap is deferred until the reference reaches
//     the head of the graduation queue, then the machine is flushed
//     (slower — the paper reports 7–9% on compress — but cheaper hardware).
package ooo

import (
	"fmt"

	"informing/internal/bpred"
	"informing/internal/govern"
	"informing/internal/interp"
	"informing/internal/isa"
	"informing/internal/mem"
	"informing/internal/pipe"
	"informing/internal/stats"
)

// TrapMode selects how a miss trap is realised in the pipeline (§3.2).
type TrapMode uint8

const (
	TrapAsBranch TrapMode = iota
	TrapAsException
)

func (t TrapMode) String() string {
	if t == TrapAsException {
		return "exception"
	}
	return "branch"
}

// Config parameterises the machine: the fields both cores share, plus the
// out-of-order ones. DefaultConfig returns the paper's Table 1
// out-of-order column.
type Config struct {
	pipe.Config // IssueWidth is also the fetch and graduation width

	ROBSize int

	// ShadowStates bounds the number of unresolved predicted branches in
	// flight (the R10000 allows 4). In TrapAsBranch mode informing
	// memory references also consume shadow state until their tag check
	// resolves; the paper estimates ~3x more shadow state is needed,
	// hence DefaultConfig uses 12 when informing ops are enabled (see
	// the ablation bench).
	ShadowStates int

	MispredictExtra int64 // extra refetch delay after a branch resolves wrong
	FlushPenalty    int64 // pipeline refill after an exception-style flush

	Trap TrapMode

	// ExtendMSHRLifetime enables the §3.3 mechanism: MSHRs persist until
	// the owning memory operation graduates or is squashed.
	ExtendMSHRLifetime bool

	// SpecInjectEvery, when non-zero, injects one squashed speculative
	// informing load per N committed memory references, exercising the
	// §3.3 invalidation path (the scheduler itself never runs wrong-path
	// instructions; see DESIGN.md §6). The injected load targets the
	// reference's address plus SpecInjectStride. The injected probe
	// lands in the hierarchy between the fetched reference and the next
	// instruction the functional machine steps.
	SpecInjectEvery  int
	SpecInjectStride uint64
}

// DefaultConfig returns the Table 1 out-of-order machine: 4-wide, 32-entry
// reorder buffer, 2 INT / 2 FP / 1 branch / 1 memory unit, 32 KB 2-way L1,
// 2 MB 2-way L2, 12-cycle L2 latency, 75-cycle memory latency.
func DefaultConfig() Config {
	return Config{
		Config: pipe.Config{
			IssueWidth:  4,
			Units:       [isa.NumFUClasses]int{isa.FUInt: 2, isa.FUFP: 2, isa.FUBranch: 1, isa.FUMem: 1},
			FrontDepth:  3,
			TakenBubble: 1,
			Lat: isa.LatencyTable{
				IntMul: 12, IntDiv: 76, FPDiv: 15, FPSqrt: 20, FPOther: 2,
				IntALU: 1, Branch: 1,
			},
			Hier: mem.HierConfig{
				L1: mem.CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 2},
				L2: mem.CacheConfig{SizeBytes: 2 << 20, LineBytes: 32, Assoc: 2},
			},
			ICache: mem.CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 2},
			Timing: mem.TimingConfig{
				L1HitLat: 2, L2Lat: 12, MemLat: 75,
				MSHRs: 8, Banks: 2, FillTime: 4, MemInterval: 20, LineBytes: 32,
			},
			BPredEntries: bpred.DefaultEntries,
			Mode:         interp.ModeOff,
		},
		ROBSize:         32,
		ShadowStates:    12,
		MispredictExtra: 1,
		FlushPenalty:    2,
		Trap:            TrapAsBranch,
	}
}

type producer struct {
	idx int
	seq uint64
	set bool
}

type robEntry struct {
	rec     interp.Rec
	st      *isa.Static // predecoded classification of rec.Inst (never nil)
	fu      isa.FUClass
	srcs    [3]producer // register producers (up to 2) + CC producer for BMISS
	nsrc    int
	fetchC  int64
	issueC  int64
	tagC    int64 // memory tag-check resolution time
	compC   int64 // data/result available
	gradC   int64
	issued  bool
	grad    bool
	shadow  bool // currently consumes branch shadow state
	isMiss  bool // memory op that missed in L1
	memAddr uint64

	// Doubly-linked list of unissued entries in dispatch (age) order, so
	// the issue stage scans only candidates instead of walking the whole
	// reorder buffer past already-issued entries. -1 terminates.
	nextUn, prevUn int32
}

type fetchStallKind uint8

const (
	stallNone fetchStallKind = iota
	stallExec                // resume after entry completes (+MispredictExtra)
	stallTag                 // resume after entry's tag check (+MispredictExtra)
	stallGrad                // resume after entry graduates (+FlushPenalty)
)

// Run simulates prog to completion and returns the measured statistics.
func Run(prog *isa.Program, cfg Config) (stats.Run, error) {
	r, _, err := RunDetailed(prog, cfg)
	return r, err
}

// RunDetailed is Run but also returns the functional machine, giving
// callers access to the final architectural state (registers, data memory,
// MHAR/MHRR) — used by the examples and by differential tests.
func RunDetailed(prog *isa.Program, cfg Config) (stats.Run, *interp.Machine, error) {
	h, err := pipe.New("ooo", prog, &cfg.Config)
	if err != nil {
		return stats.Run{}, nil, err
	}
	m, statics, hier, timing, bp, gov := h.M, h.Statics, h.Hier, h.Timing, h.BP, h.Gov
	out, sim := &h.Out, h.Sim
	timing.ExtendLifetime = cfg.ExtendMSHRLifetime

	// Shadow-state occupancy is maintained incrementally instead of
	// rescanning the reorder buffer every fetch stage. A shadow entry is
	// live from dispatch until its resolve time passes: tag check for
	// memory operations, completion for branches. At issue the resolve
	// time becomes known and is at most max(lat) ∪ L1HitLat cycles ahead,
	// so the pending decrements fit a small power-of-two time wheel
	// advanced as the cycle counter increments. Resolve precedes
	// graduation (res ≤ compC < gradC), so reorder-buffer slot reuse can
	// never double-count: every decrement lands before its entry leaves.
	maxRes := int64(cfg.Timing.L1HitLat)
	for _, l := range h.Lat {
		if l > maxRes {
			maxRes = l
		}
	}
	wheelLen := int64(1)
	for wheelLen <= maxRes+1 {
		wheelLen <<= 1
	}
	wheelMask := wheelLen - 1
	shadowWheel := make([]int32, wheelLen)
	shadowLive := 0

	rob := make([]robEntry, cfg.ROBSize)
	head, tail, count := 0, 0, 0

	// Unissued-entry list (age order): the issue stage walks this instead
	// of the whole reorder buffer. Entries join at dispatch and leave when
	// they issue; graduation only ever removes issued entries, so the list
	// needs no maintenance there.
	unHead, unTail := int32(-1), int32(-1)
	unlink := func(at int32) {
		e := &rob[at]
		if e.prevUn >= 0 {
			rob[e.prevUn].nextUn = e.nextUn
		} else {
			unHead = e.nextUn
		}
		if e.nextUn >= 0 {
			rob[e.nextUn].prevUn = e.prevUn
		} else {
			unTail = e.prevUn
		}
	}

	var regProd [isa.NumRegs]producer
	var ccProd producer

	var (
		cycle        int64
		fetchBlocked int64 // fetch may not run before this cycle
		stallKind    fetchStallKind
		stallIdx     int
		stallSeq     uint64

		memSeen int // committed memory refs, for SpecInjectEvery
	)

	// abort adds the pipeline detail to the harness snapshot: the cycle,
	// reorder-buffer occupancy and the oldest un-graduated instruction.
	abort := func(cause error) error {
		snap := govern.Snapshot{Cycle: cycle, ROBOccupied: count}
		if count > 0 {
			snap.OldestInst = rob[head].rec.Inst.String()
		}
		return h.Abort(cause, snap)
	}

	var rec interp.Rec // reused across Step calls (Rec is copy-heavy)

	ready := func(p producer) bool {
		if !p.set {
			return true
		}
		e := &rob[p.idx]
		if e.rec.Seq != p.seq || e.grad {
			return true // producer already graduated; value long available
		}
		return e.issued && e.compC <= cycle
	}
	ccReady := func(p producer) bool {
		if !p.set {
			return true
		}
		e := &rob[p.idx]
		if e.rec.Seq != p.seq || e.grad {
			return true
		}
		return e.issued && e.tagC <= cycle
	}

	stallResolved := func() bool {
		switch stallKind {
		case stallNone:
			return true
		case stallExec:
			e := &rob[stallIdx]
			if e.rec.Seq != stallSeq {
				return true
			}
			return e.issued && cycle >= e.compC+1+cfg.MispredictExtra
		case stallTag:
			e := &rob[stallIdx]
			if e.rec.Seq != stallSeq {
				return true
			}
			return e.issued && cycle >= e.tagC+1+cfg.MispredictExtra
		case stallGrad:
			e := &rob[stallIdx]
			if e.rec.Seq != stallSeq {
				return true
			}
			return e.grad && cycle >= e.gradC+cfg.FlushPenalty
		}
		return true
	}

	for {
		// ---- graduation (uses results from previous cycles) ----------
		gradN := 0
		for count > 0 && gradN < cfg.IssueWidth {
			e := &rob[head]
			if !e.issued || e.compC > cycle-1 {
				break
			}
			e.grad = true
			e.gradC = cycle
			h.Retire(&e.rec, e.fetchC, e.issueC, e.compC, e.gradC)
			// isMiss is only ever set on memory operations, so the
			// explicit IsMem() conjunct is redundant.
			if cfg.ExtendMSHRLifetime && e.isMiss {
				timing.Release(e.memAddr)
			}
			if head++; head == cfg.ROBSize {
				head = 0
			}
			count--
			gradN++
		}
		if gradN < cfg.IssueWidth && count > 0 {
			e := &rob[head]
			if e.isMiss && e.issued && e.compC > cycle-1 {
				out.CacheSlots += int64(cfg.IssueWidth - gradN)
			}
		}
		// ---- issue ----------------------------------------------------
		// Candidates come from the unissued list (age order from the
		// reorder-buffer head); issued entries are never revisited.
		issuedN := 0
		stallCharged := false // one issue-stall charge per cycle (oldest blocked)
		var fuUsed [isa.NumFUClasses]int
		for at := unHead; at >= 0 && issuedN < cfg.IssueWidth; {
			e := &rob[at]
			next := e.nextUn
			if e.fetchC+cfg.FrontDepth > cycle {
				at = next
				continue
			}
			if fuUsed[e.fu] >= cfg.Units[e.fu] {
				if sim != nil && !stallCharged {
					stallCharged = true
					h.Stalls[e.rec.Inst.Op]++
				}
				at = next
				continue
			}
			ok := true
			// Counter reads serialize the pipeline (§1): MFCNT issues
			// only from the head of the reorder buffer.
			if e.rec.Inst.Op == isa.Mfcnt && int(at) != head {
				ok = false
			}
			for s := 0; s < e.nsrc; s++ {
				if !ready(e.srcs[s]) {
					ok = false
					break
				}
			}
			if ok && e.rec.Inst.Op == isa.Bmiss && !ccReady(e.srcs[2]) {
				ok = false
			}
			if !ok {
				if sim != nil && !stallCharged {
					stallCharged = true
					h.Stalls[e.rec.Inst.Op]++
				}
				at = next
				continue
			}
			if e.st.Mem() {
				done, accepted := timing.Request(cycle, e.rec.Level, e.rec.EA)
				if accepted && cfg.Faults != nil {
					done += cfg.Faults.Delay(e.rec.PC, e.rec.EA)
				}
				if !accepted {
					// Lockup-free cache full: retry next cycle.
					fuUsed[e.fu]++ // the port was occupied by the attempt
					issuedN++
					if sim != nil && !stallCharged {
						stallCharged = true
						h.Stalls[e.rec.Inst.Op]++
					}
					at = next
					continue
				}
				e.tagC = cycle + int64(cfg.Timing.L1HitLat)
				if e.st.Load() {
					e.compC = done
				} else {
					e.compC = e.tagC
				}
			} else {
				e.compC = cycle + h.Lat[e.rec.Inst.Op]
				e.tagC = e.compC
			}
			e.issueC = cycle
			e.issued = true
			unlink(at)
			if e.shadow {
				// The resolve time is now known; schedule the live-count
				// decrement (or apply it, if already resolved this cycle).
				res := e.compC
				if e.st.Mem() {
					res = e.tagC
				}
				if res <= cycle {
					shadowLive--
				} else {
					shadowWheel[res&wheelMask]++
				}
			}
			fuUsed[e.fu]++
			issuedN++
			at = next
		}

		// ---- fetch/dispatch -------------------------------------------
		if cycle >= fetchBlocked && stallResolved() {
			stallKind = stallNone
			fetched := 0
			for fetched < cfg.IssueWidth && count < cfg.ROBSize && !m.Halted {
				// Shadow-state limit gates fetch past unresolved
				// speculation. shadowLive is maintained incrementally:
				// the cycle does not advance mid-stage, so no shadow can
				// resolve while fetching — the count only grows, by
				// exactly the shadow entries dispatched below.
				if shadowLive >= cfg.ShadowStates {
					break
				}
				if m.Seq >= h.Limit {
					return *out, m, abort(h.BudgetErr())
				}
				iMiss, err := h.Step(&rec)
				if err != nil {
					h.FlushObs(cycle)
					return *out, m, err
				}
				op := rec.Inst.Op
				fetchAt := cycle
				if iMiss {
					fetchAt = cycle + int64(cfg.Timing.L2Lat)
					fetchBlocked = fetchAt
				}
				st := &statics[rec.SIdx]
				idx := tail
				e := &rob[idx]
				e.rec = rec
				e.st = st
				e.fu = st.FU
				e.fetchC = fetchAt
				e.nsrc = 0
				e.issued, e.grad, e.shadow, e.isMiss = false, false, false, false
				// Append to the unissued list (dispatch order == age order).
				idx32 := int32(idx)
				e.prevUn, e.nextUn = unTail, -1
				if unTail >= 0 {
					rob[unTail].nextUn = idx32
				} else {
					unHead = idx32
				}
				unTail = idx32
				for s := 0; s < int(st.NSrc); s++ {
					e.srcs[e.nsrc] = regProd[st.Src[s]]
					e.nsrc++
				}
				if op == isa.Bmiss {
					e.srcs[2] = ccProd
				}
				if st.HasDest {
					regProd[st.Dest] = producer{idx: idx, seq: rec.Seq, set: true}
				}
				if st.Mem() {
					e.memAddr = rec.EA
					e.isMiss = rec.Level > interp.LevelL1
					if op != isa.Prefetch {
						ccProd = producer{idx: idx, seq: rec.Seq, set: true}
					}
				}
				if tail++; tail == cfg.ROBSize {
					tail = 0
				}
				count++
				fetched++

				// Control-flow consequences for the fetcher. Redirect
				// blocks extend (never shorten) an existing block such
				// as an instruction-cache miss stall.
				blockUntil := func(t int64) {
					if t > fetchBlocked {
						fetchBlocked = t
					}
				}
				switch {
				case op == isa.Bmiss:
					// Statically predicted not-taken.
					e.shadow = true
					if rec.Taken {
						out.BmissTaken++
						stallKind, stallIdx, stallSeq = stallExec, idx, rec.Seq
					}
				case st.CondBranch():
					pred := bp.Predict(rec.PC)
					bp.Update(rec.PC, rec.Taken)
					e.shadow = true
					if pred != rec.Taken {
						stallKind, stallIdx, stallSeq = stallExec, idx, rec.Seq
					} else if rec.Taken {
						blockUntil(fetchAt + 1 + cfg.TakenBubble)
					}
				case op == isa.Mfcnt:
					// The serializing counter read also stops fetch
					// until it graduates.
					stallKind, stallIdx, stallSeq = stallGrad, idx, rec.Seq
				case st.Branch():
					// Unconditional and return-style transfers are
					// predicted via BTB/return hardware.
					blockUntil(fetchAt + 1 + cfg.TakenBubble)
				case rec.Trap:
					switch cfg.Trap {
					case TrapAsBranch:
						e.shadow = true
						stallKind, stallIdx, stallSeq = stallTag, idx, rec.Seq
					case TrapAsException:
						stallKind, stallIdx, stallSeq = stallGrad, idx, rec.Seq
					}
				case st.InformingMem() && cfg.Mode == interp.ModeTrap && cfg.Trap == TrapAsBranch &&
					op != isa.Prefetch && m.MHAR != 0:
					// A non-trapping informing reference still occupies
					// shadow state until its tag check resolves.
					// (SfInforming is only ever set on memory operations,
					// so the explicit IsMem conjunct is subsumed.)
					e.shadow = true
				}
				if e.shadow {
					shadowLive++
				}

				// §3.3 exercise: inject a squashed speculative
				// informing load.
				if cfg.SpecInjectEvery > 0 && st.Mem() {
					memSeen++
					if memSeen%cfg.SpecInjectEvery == 0 {
						specEA := rec.EA + cfg.SpecInjectStride
						lvl := hier.ProbeData(specEA, false)
						if lvl > interp.LevelL1 {
							if _, acc := timing.Request(cycle, lvl, specEA); acc {
								timing.Squash(specEA)
							}
							if hier.SpeculativeInvalidate(specEA) {
								out.SpecInvalidates++
							}
						}
					}
				}

				if stallKind != stallNone || fetchBlocked > cycle {
					break
				}
			}
		}

		// ---- termination / progress guard ------------------------------
		if count == 0 && m.Halted {
			break
		}
		if gradN > 0 || issuedN > 0 {
			gov.Progress(cycle)
		}
		if err := gov.CheckProgress(cycle); err != nil {
			return *out, m, abort(fmt.Errorf("ooo: %w", err))
		}
		if err := gov.Tick(); err != nil {
			return *out, m, abort(fmt.Errorf("ooo: %w", err))
		}
		cycle++
		// Shadows whose resolve time is this new cycle stop occupying
		// shadow state before the coming fetch stage evaluates the gate.
		if w := shadowWheel[cycle&wheelMask]; w != 0 {
			shadowLive -= int(w)
			shadowWheel[cycle&wheelMask] = 0
		}
		if sim != nil && cycle&(pipe.ObsFlushEvery-1) == 0 {
			h.FlushObs(cycle)
		}
	}
	return h.Finish(cycle), m, nil
}
