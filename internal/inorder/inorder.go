// Package inorder implements the paper's in-order-issue machine model,
// patterned on the Alpha 21164 (§3.1 and Table 1): a 4-wide in-order
// superscalar with presence-bit operand stalls, 2-bit-counter branch
// prediction, a lockup-free two-level cache hierarchy, and informing
// memory operations realised with the 21164's replay-trap mechanism (the
// pipeline is flushed and the fetcher redirected to the miss handler when
// an informing reference misses).
//
// The model is an execution-driven, dynamic-order scheduler: the
// functional front end (internal/interp) resolves each instruction,
// including informing control flow, and this package assigns fetch, issue,
// completion and retirement times under the machine's structural and data
// constraints.
package inorder

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

// Config parameterises the machine: the fields both cores share, plus the
// in-order ones. DefaultConfig returns the paper's Table 1 in-order
// column.
type Config struct {
	pipe.Config

	FetchWidth int

	MispredictPenalty int64 // fetch restart delay after branch resolution
	ReplayPenalty     int64 // informing-trap (replay) pipeline flush cost
}

// DefaultConfig returns the Table 1 in-order machine: 4-wide, 2 INT, 2 FP,
// 1 branch unit (plus one memory port), 8 KB direct-mapped L1, 2 MB 4-way
// L2, 11-cycle L2 latency, 50-cycle memory latency.
func DefaultConfig() Config {
	return Config{
		Config: pipe.Config{
			IssueWidth:  4,
			Units:       [isa.NumFUClasses]int{isa.FUInt: 2, isa.FUFP: 2, isa.FUBranch: 1, isa.FUMem: 1},
			FrontDepth:  4,
			TakenBubble: 1,
			Lat: isa.LatencyTable{
				IntMul: 12, IntDiv: 76, FPDiv: 17, FPSqrt: 20, FPOther: 4,
				IntALU: 1, Branch: 1,
			},
			Hier: mem.HierConfig{
				L1: mem.CacheConfig{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1},
				L2: mem.CacheConfig{SizeBytes: 2 << 20, LineBytes: 32, Assoc: 4},
			},
			ICache: mem.CacheConfig{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1},
			Timing: mem.TimingConfig{
				L1HitLat: 2, L2Lat: 11, MemLat: 50,
				MSHRs: 8, Banks: 2, FillTime: 4, MemInterval: 20, LineBytes: 32,
			},
			BPredEntries: bpred.DefaultEntries,
			Mode:         interp.ModeOff,
		},
		FetchWidth:        4,
		MispredictPenalty: 5,
		ReplayPenalty:     5,
	}
}

const ccReg = isa.NumRegs // pseudo-register index for the cache condition code

// Run simulates prog to completion and returns the measured statistics.
func Run(prog *isa.Program, cfg Config) (stats.Run, error) {
	r, _, err := RunDetailed(prog, cfg)
	return r, err
}

// RunDetailed is Run but also returns the functional machine, giving
// callers access to the final architectural state (registers, data memory,
// MHAR/MHRR) — used by the examples and by differential tests.
func RunDetailed(prog *isa.Program, cfg Config) (stats.Run, *interp.Machine, error) {
	h, err := pipe.New("inorder", prog, &cfg.Config)
	if err != nil {
		return stats.Run{}, nil, err
	}
	m, statics, timing, bp, gov := h.M, h.Statics, h.Timing, h.BP, h.Gov
	out := &h.Out

	var (
		regReady [isa.NumRegs + 1]int64

		fetchCycle int64 // cycle in which the next instruction is fetched
		fetchSlots int   // instructions already fetched in fetchCycle

		issueCycle int64 // cycle currently being filled by the issue stage
		issuedInC  int
		fuUsed     [isa.NumFUClasses]int
		lastIssue  int64 // in-order issue: next inst may not issue earlier

		retireCycle int64 // cycle of the most recent retirement
		retiredInC  int
	)

	// abort snapshots the retirement cycle; the harness adds the rest.
	abort := func(cause error) error {
		return h.Abort(cause, govern.Snapshot{Cycle: retireCycle})
	}

	// findIssue returns the first cycle >= earliest with an issue-width
	// slot and a free unit of class fu, honouring in-order issue.
	findIssue := func(earliest int64, fu isa.FUClass) int64 {
		t := earliest
		if t < lastIssue {
			t = lastIssue
		}
		for {
			if t > issueCycle {
				issueCycle = t
				issuedInC = 0
				fuUsed = [isa.NumFUClasses]int{}
			}
			if issuedInC < cfg.IssueWidth && fuUsed[fu] < cfg.Units[fu] {
				issuedInC++
				fuUsed[fu]++
				lastIssue = t
				return t
			}
			t++
		}
	}

	var rec interp.Rec // reused across Step calls (Rec is copy-heavy)
	for !m.Halted {
		if m.Seq >= h.Limit {
			return *out, m, abort(h.BudgetErr())
		}
		if err := gov.Tick(); err != nil {
			return *out, m, abort(fmt.Errorf("inorder: %w", err))
		}
		iMiss, err := h.Step(&rec)
		if err != nil {
			h.FlushObs(retireCycle)
			return *out, m, err
		}
		in := rec.Inst
		st := &statics[rec.SIdx]

		// --- fetch ---------------------------------------------------
		if fetchSlots == cfg.FetchWidth {
			fetchCycle++
			fetchSlots = 0
		}
		if iMiss {
			fetchCycle += int64(cfg.Timing.L2Lat)
			fetchSlots = 0
		}
		ft := fetchCycle
		fetchSlots++

		// --- operand readiness ----------------------------------------
		earliest := ft + cfg.FrontDepth
		for s := 0; s < int(st.NSrc); s++ {
			if r := regReady[st.Src[s]]; r > earliest {
				earliest = r
			}
		}
		if in.Op == isa.Bmiss {
			if r := regReady[ccReg]; r > earliest {
				earliest = r
			}
		}

		// --- issue & execute -------------------------------------------
		fu := st.FU
		issueAt := findIssue(earliest, fu)
		var complete int64
		missStart, missEnd := int64(-1), int64(-1)

		if st.Mem() {
			done, ok := timing.Request(issueAt, rec.Level, rec.EA)
			// The retry loop advances issueAt monotonically, so the
			// governor's watchdog bounds it: a memory system that never
			// accepts the request (e.g. under injected re-entrancy faults)
			// surfaces as ErrLivelock instead of spinning forever.
			gov.Progress(issueAt)
			for !ok {
				issueAt = findIssue(issueAt+1, fu)
				done, ok = timing.Request(issueAt, rec.Level, rec.EA)
				if err := gov.CheckProgress(issueAt); err != nil {
					return *out, m, abort(fmt.Errorf("inorder: memory request at pc %#x ea %#x never accepted: %w",
						rec.PC, rec.EA, err))
				}
			}
			if cfg.Faults != nil {
				done += cfg.Faults.Delay(rec.PC, rec.EA)
			}
			tagKnown := issueAt + int64(cfg.Timing.L1HitLat)
			regReady[ccReg] = tagKnown
			switch {
			case st.Load():
				complete = done
				if st.HasDest {
					regReady[st.Dest] = done
				}
				if rec.Level > interp.LevelL1 {
					missStart, missEnd = tagKnown, done
				}
			default: // stores and prefetches retire from the write buffer
				complete = tagKnown
			}
			if rec.Trap {
				// Replay trap: flush and refetch from the MHAR.
				fetchCycle = tagKnown + cfg.ReplayPenalty
				fetchSlots = 0
			}
		} else {
			complete = issueAt + h.Lat[in.Op]
			if st.HasDest {
				regReady[st.Dest] = complete
			}
		}

		if h.Sim != nil && issueAt > earliest {
			// Cycles this instruction waited past operand readiness,
			// charged to its opcode: FU/issue-width contention plus, for
			// memory ops, the request-retry loop above (which advances
			// issueAt until the memory system accepts).
			h.Stalls[in.Op] += uint64(issueAt - earliest)
		}

		// --- control flow ---------------------------------------------
		switch in.Op {
		case isa.Beq, isa.Bne, isa.Blt, isa.Bge:
			pred := bp.Predict(rec.PC)
			bp.Update(rec.PC, rec.Taken)
			if pred != rec.Taken {
				fetchCycle = complete + cfg.MispredictPenalty
				fetchSlots = 0
			} else if rec.Taken {
				fetchCycle = ft + 1 + cfg.TakenBubble
				fetchSlots = 0
			}
		case isa.Bmiss:
			// Statically predicted not-taken (optimised for hits).
			if rec.Taken {
				out.BmissTaken++
				fetchCycle = complete + cfg.MispredictPenalty
				fetchSlots = 0
			}
		case isa.J, isa.Jal, isa.Jr, isa.Jalr, isa.Rfmh:
			// Direct targets and return-style jumps are predicted;
			// only the taken-redirect bubble applies.
			fetchCycle = ft + 1 + cfg.TakenBubble
			fetchSlots = 0
		}

		// --- in-order retirement & slot accounting ---------------------
		rt := complete + 1
		if rt < retireCycle {
			rt = retireCycle
		}
		if rt == retireCycle && retiredInC == cfg.IssueWidth {
			rt++
		}
		if rt > retireCycle {
			// Cycles (retireCycle, rt) exclusive retire nothing; charge
			// those overlapping this instruction's outstanding miss
			// window to the data cache.
			if missStart >= 0 {
				lo, hi := retireCycle+1, rt-1
				if lo < missStart {
					lo = missStart
				}
				if hi > missEnd {
					hi = missEnd
				}
				if hi >= lo {
					out.CacheSlots += int64(cfg.IssueWidth) * (hi - lo + 1)
				}
			}
			retireCycle = rt
			retiredInC = 0
		}
		retiredInC++
		h.Retire(&rec, ft, issueAt, complete, retireCycle)
		if h.Sim != nil && out.Instrs&(pipe.ObsFlushEvery-1) == 0 {
			h.FlushObs(retireCycle)
		}
	}
	return h.Finish(retireCycle), m, nil
}
