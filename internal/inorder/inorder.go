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
	"informing/internal/faults"
	"informing/internal/govern"
	"informing/internal/interp"
	"informing/internal/isa"
	"informing/internal/mem"
	"informing/internal/obs"
	"informing/internal/stats"
)

// Config parameterises the machine. DefaultConfig returns the paper's
// Table 1 in-order column.
type Config struct {
	IssueWidth int
	FetchWidth int
	Units      [isa.NumFUClasses]int

	// FrontDepth is the fetch-to-issue depth in cycles; a mispredicted
	// branch costs FrontDepth + MispredictExtra cycles of refetch.
	FrontDepth        int64
	TakenBubble       int64 // bubble after a correctly-predicted taken branch
	MispredictPenalty int64 // fetch restart delay after branch resolution
	ReplayPenalty     int64 // informing-trap (replay) pipeline flush cost

	Lat    isa.LatencyTable
	Hier   mem.HierConfig
	Timing mem.TimingConfig

	// ICache models the primary instruction cache (Table 1); a zero
	// SizeBytes disables it (perfect instruction fetch). Misses stall
	// the fetcher for the L2 latency (program text always fits the
	// unified secondary cache at our scales).
	ICache mem.CacheConfig

	BPredEntries int
	Mode         interp.Mode

	// TrapThreshold selects which misses trap (interp.LevelL1 = any
	// primary miss, the default; interp.LevelL2 = secondary misses only).
	TrapThreshold int

	// FlushEvery, when non-zero, flushes the L1 data cache every N memory
	// references, modelling context switches (§3.3).
	FlushEvery uint64

	// MaxInsts bounds the dynamic instruction count (0 =
	// govern.DefaultBudget). Exhausting it returns an error wrapping
	// govern.ErrBudget (and interp.ErrLimit).
	MaxInsts uint64

	// Govern supplies the run-governor policy: context cancellation, a
	// livelock watchdog for the memory-system retry path, and (when its
	// MaxInsts is set) the instruction budget. The zero value uses the
	// govern package defaults; a zero Govern.MaxInsts falls back to
	// Config.MaxInsts.
	Govern govern.Config

	// Faults, when non-nil, perturbs the run (see internal/faults):
	// architectural outcome flips apply on the probe path, latency
	// jitter at the memory-request site.
	Faults *faults.Injector

	// Trace, when non-nil, receives one TraceEvent per instruction in
	// retirement order (debugging/visualisation; adds overhead).
	Trace func(stats.TraceEvent)

	// TraceEvery samples the trace at the source: one TraceEvent per N
	// retired instructions (0 or 1 = every instruction). Source-side
	// sampling skips event construction — including the disassembly
	// string — entirely (DESIGN.md §11).
	TraceEvery uint64

	// Obs, when non-nil, receives live metrics (instruction/cycle/trap
	// counters, miss- and trap-latency histograms, handler occupancy,
	// per-opcode issue stalls; see obs.Sim). A nil Obs costs only
	// nil-checks: the disabled hot path stays allocation-free.
	Obs *obs.Sim
}

// DefaultConfig returns the Table 1 in-order machine: 4-wide, 2 INT, 2 FP,
// 1 branch unit (plus one memory port), 8 KB direct-mapped L1, 2 MB 4-way
// L2, 11-cycle L2 latency, 50-cycle memory latency.
func DefaultConfig() Config {
	return Config{
		IssueWidth:        4,
		FetchWidth:        4,
		Units:             [isa.NumFUClasses]int{isa.FUInt: 2, isa.FUFP: 2, isa.FUBranch: 1, isa.FUMem: 1},
		FrontDepth:        4,
		TakenBubble:       1,
		MispredictPenalty: 5,
		ReplayPenalty:     5,
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
	}
}

const ccReg = isa.NumRegs // pseudo-register index for the cache condition code

// obsFlushEvery is the cadence (in retired instructions, power of two) at
// which batched observability counters are pushed to the shared atomic
// registry. Every exit path flushes too, so totals are exact.
const obsFlushEvery = 4096

// Run simulates prog to completion and returns the measured statistics.
func Run(prog *isa.Program, cfg Config) (stats.Run, error) {
	r, _, err := RunDetailed(prog, cfg)
	return r, err
}

// RunDetailed is Run but also returns the functional machine, giving
// callers access to the final architectural state (registers, data memory,
// MHAR/MHRR) — used by the examples and by differential tests.
func RunDetailed(prog *isa.Program, cfg Config) (stats.Run, *interp.Machine, error) {
	hier, err := mem.NewHierarchy(cfg.Hier)
	if err != nil {
		return stats.Run{}, nil, fmt.Errorf("inorder: %w", err)
	}
	hier.Obs = cfg.Obs
	var icache *mem.Cache
	if cfg.ICache.SizeBytes > 0 {
		if icache, err = mem.NewCache(cfg.ICache); err != nil {
			return stats.Run{}, nil, fmt.Errorf("inorder: icache: %w", err)
		}
	}
	probe := hier.ProbeData
	if cfg.FlushEvery > 0 {
		var refs uint64
		probe = func(addr uint64, write bool) int {
			refs++
			if refs%cfg.FlushEvery == 0 {
				hier.L1.Flush()
			}
			return hier.ProbeData(addr, write)
		}
	}
	m := interp.New(prog, cfg.Mode, probe)
	statics := m.Statics()
	m.TrapThreshold = cfg.TrapThreshold
	if cfg.Faults != nil {
		m.Faults = cfg.Faults
		cfg.Faults.SetLineBytes(uint64(cfg.Hier.L1.LineBytes))
	}
	timing, err := mem.NewTiming(cfg.Timing)
	if err != nil {
		return stats.Run{}, nil, fmt.Errorf("inorder: %w", err)
	}
	bp := bpred.New(cfg.BPredEntries)

	gc := cfg.Govern
	if gc.MaxInsts == 0 {
		gc.MaxInsts = cfg.MaxInsts
	}
	gov := govern.New(gc)

	// Per-opcode execution latencies, resolved once so the issue stage
	// indexes a flat table instead of re-deriving the latency per dynamic
	// instruction.
	var lat [isa.NumOps]int64
	for op := 0; op < isa.NumOps; op++ {
		lat[op] = int64(cfg.Lat.Latency(isa.Op(op)))
	}

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

		lastILine = ^uint64(0) // current instruction-fetch line

		out       stats.Run
		inHandler bool

		handlerLen int64 // instructions in the current handler episode
	)
	out.IssueWidth = cfg.IssueWidth

	limit := gov.Budget()

	sim := cfg.Obs
	traceEvery := cfg.TraceEvery
	if traceEvery == 0 {
		traceEvery = 1
	}
	traceLeft := traceEvery
	var disasms []string // per-static disassembly, built only when tracing
	if cfg.Trace != nil {
		disasms = m.Disasms()
	}

	// Instruction and cycle counts accumulate in plain locals and reach
	// the shared atomic cells in batches (obsFlushEvery instructions, plus
	// every exit path), bounding the enabled-metrics cost to well under
	// the DESIGN.md §11 budget while live readers stay at most a few
	// thousand instructions behind.
	var obsInstrs, obsCycles uint64
	var obsStalls [isa.NumOps]uint64
	flushObs := func() {
		if sim == nil {
			return
		}
		sim.Instrs.Add(obsInstrs)
		sim.Cycles.Add(obsCycles)
		obsInstrs, obsCycles = 0, 0
		for op, n := range obsStalls {
			if n != 0 {
				sim.IssueStalls[op].Add(n)
				obsStalls[op] = 0
			}
		}
		hier.FlushObs()
	}

	// abort wraps cause with a diagnostic snapshot of where the machine
	// was: the architectural PC, the retirement cycle, and the statistics
	// accumulated so far.
	abort := func(cause error) error {
		flushObs()
		snap := govern.Snapshot{
			PC: m.PC, Cycle: retireCycle, Seq: m.Seq,
			InHandler: m.InHandler, MHAR: m.MHAR, MHRR: m.MHRR,
			Note: fmt.Sprintf("l1-misses=%d mshr-peak=%d", hier.L1Misses, timing.PeakInUse),
		}
		snap.Partial = out
		snap.Partial.Cycles = retireCycle
		snap.Partial.DynInsts = m.Seq
		return govern.WithSnapshot(cause, snap)
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

	var rec interp.Rec // reused across StepInto calls (Rec is copy-heavy)
	for !m.Halted {
		if m.Seq >= limit {
			return out, m, abort(fmt.Errorf("inorder: %w: %w (%d instructions)",
				govern.ErrBudget, interp.ErrLimit, limit))
		}
		if err := gov.Tick(); err != nil {
			return out, m, abort(fmt.Errorf("inorder: %w", err))
		}
		wasInHandler := inHandler
		if err := m.StepInto(&rec); err != nil {
			flushObs()
			return out, m, err
		}
		in := rec.Inst
		st := &statics[rec.SIdx]

		// --- fetch ---------------------------------------------------
		if fetchSlots == cfg.FetchWidth {
			fetchCycle++
			fetchSlots = 0
		}
		if icache != nil {
			if line := icache.Line(rec.PC); line != lastILine {
				// Sequential next-line prefetching hides in-line
				// misses; only control transfers to cold lines stall
				// the fetcher.
				sequential := line == lastILine+uint64(cfg.ICache.LineBytes)
				lastILine = line
				if hit, _, _ := icache.Access(rec.PC, false); !hit && !sequential {
					out.IMisses++
					fetchCycle += int64(cfg.Timing.L2Lat)
					fetchSlots = 0
				}
			}
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
			out.MemRefs++
			if rec.Level > interp.LevelL1 {
				out.L1Misses++
			}
			if rec.Level > interp.LevelL2 {
				out.L2Misses++
			}
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
					return out, m, abort(fmt.Errorf("inorder: memory request at pc %#x ea %#x never accepted: %w",
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
			complete = issueAt + lat[in.Op]
			if st.HasDest {
				regReady[st.Dest] = complete
			}
		}

		if sim != nil && issueAt > earliest {
			// Cycles this instruction waited past operand readiness,
			// charged to its opcode: FU/issue-width contention plus, for
			// memory ops, the request-retry loop above (which advances
			// issueAt until the memory system accepts).
			obsStalls[in.Op] += uint64(issueAt - earliest)
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
			obsCycles += uint64(rt - retireCycle)
			retireCycle = rt
			retiredInC = 0
		}
		retiredInC++
		out.Instrs++
		if cfg.Trace != nil {
			if traceLeft--; traceLeft == 0 {
				traceLeft = traceEvery
				cfg.Trace(rec.TraceEvent(disasms[rec.SIdx], ft, issueAt, complete, retireCycle))
			}
		}
		obsInstrs++
		if sim != nil {
			if missStart >= 0 {
				sim.MissLatency.Observe(complete - issueAt)
			}
			if rec.Trap {
				sim.TrapLatency.Observe(retireCycle - issueAt)
			}
			if obsInstrs&(obsFlushEvery-1) == 0 {
				flushObs()
			}
		}

		if rec.Trap {
			inHandler = true
			handlerLen = 0
			out.Traps++
			if sim != nil {
				sim.Traps.Inc()
			}
		}
		if wasInHandler {
			out.HandlerInsts++
			handlerLen++
			if in.Op == isa.Rfmh {
				inHandler = false
				if sim != nil {
					sim.HandlerOcc.Observe(handlerLen)
				}
			}
		}
	}

	flushObs()
	out.Cycles = retireCycle
	if out.Cycles < 1 {
		out.Cycles = 1
	}
	out.DynInsts = m.Seq
	out.OtherSlots = out.TotalSlots() - out.BusySlots() - out.CacheSlots
	if out.OtherSlots < 0 {
		out.OtherSlots = 0
	}
	out.BranchLookups = bp.Lookups
	out.BranchMispredicts = bp.Mispredict
	out.MSHRFullStalls = timing.MSHRFullStalls
	out.MSHRMerges = timing.Merges
	out.MSHRPeak = timing.PeakInUse
	// Per-class miss taxonomy, classified at fill time inside the
	// hierarchy; the classes sum to out.L1Misses/out.L2Misses
	// (stats.Run.CheckTaxonomy).
	out.L1Tax = hier.L1.Taxonomy()
	out.L2Tax = hier.L2.Taxonomy()
	return out, m, nil
}
