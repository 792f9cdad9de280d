// Package pipe is the harness both timing cores (internal/ooo,
// internal/inorder) run inside. The paper applies one set of informing
// semantics — MHAR/MHRR traps, BMISS, handler episodes — to two
// pipelines and credits every difference between the machines to the
// pipelines alone (§3.1, §3.2). This package holds everything else, once:
// the functional front end and its instruction-cache model, the data
// hierarchy and memory timing, the branch predictor, the run governor,
// memory-reference and handler-episode accounting, trace emission,
// batched observability, the abort snapshot and the final statistics.
// The cores keep only their schedulers.
package pipe

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

// Config holds the parameters both machines share. ooo.Config and
// inorder.Config embed it.
type Config struct {
	IssueWidth int // per-cycle issue and retirement width
	Units      [isa.NumFUClasses]int

	FrontDepth  int64 // fetch-to-issue minimum in cycles
	TakenBubble int64 // bubble after a correctly-predicted taken branch

	Lat    isa.LatencyTable
	Hier   mem.HierConfig
	Timing mem.TimingConfig

	// ICache models the primary instruction cache (Table 1); a zero
	// SizeBytes disables it (perfect instruction fetch). Misses stall the
	// fetcher for the L2 latency (program text always fits the unified
	// secondary cache at our scales).
	ICache mem.CacheConfig

	BPredEntries int
	Mode         interp.Mode

	// TrapThreshold selects which misses trap (interp.LevelL1 = any
	// primary miss, the default; interp.LevelL2 = secondary misses only,
	// the §4.1.3 refinement).
	TrapThreshold int

	// FlushEvery, when non-zero, flushes the L1 data cache every N memory
	// references, modelling context switches: the paper's §3.3 point that
	// cache state — and therefore trap counts — is not a deterministic
	// function of the program, while architectural results are
	// unaffected.
	FlushEvery uint64

	// Govern supplies the run-governor policy: context cancellation, a
	// livelock watchdog, and the instruction budget (Govern.MaxInsts, 0 =
	// govern.DefaultBudget). Exhausting the budget returns an error
	// wrapping govern.ErrBudget and interp.ErrLimit.
	Govern govern.Config

	// Faults, when non-nil, perturbs the run (see internal/faults):
	// architectural outcome flips apply on the probe path, latency jitter
	// at the memory-request site.
	Faults *faults.Injector

	// Trace, when non-nil, receives one TraceEvent per instruction in
	// retirement (graduation) order (debugging/visualisation; adds
	// overhead).
	Trace func(stats.TraceEvent)

	// TraceEvery samples the trace at the source: one TraceEvent per N
	// retired instructions (0 or 1 = every instruction). Source-side
	// sampling skips event construction entirely — including the
	// disassembly string — so a 1-in-64 sampled trace costs a counter
	// decrement per instruction, not an allocation (DESIGN.md §11).
	TraceEvery uint64

	// Obs, when non-nil, receives live metrics (instruction/cycle/trap
	// counters, miss- and trap-latency histograms, handler occupancy,
	// per-opcode issue stalls; see obs.Sim). A nil Obs costs only
	// nil-checks: the disabled hot path stays allocation-free.
	Obs *obs.Sim
}

// ObsFlushEvery is the power-of-two cadence at which a core pushes its
// batched observability counters to the shared atomic registry: every
// 4096 cycles out-of-order, every 4096 retired instructions in-order.
// Every exit path flushes too, so totals are exact; between flushes live
// readers lag by at most this much work.
const ObsFlushEvery = 4096

// Harness is one run's shared machinery. A core builds it with New, drives
// Step once per fetched instruction and Retire once per retired one, and
// ends with Finish or Abort.
type Harness struct {
	M       *interp.Machine
	Statics []isa.Static
	Hier    *mem.Hierarchy
	Timing  *mem.Timing
	BP      *bpred.Predictor
	Gov     *govern.Governor
	Limit   uint64            // resolved instruction budget
	Lat     [isa.NumOps]int64 // per-opcode execution latency
	Out     stats.Run         // statistics so far

	// Sim is cfg.Obs. Stalls batches the per-opcode issue-stall counts the
	// core charges while Sim is non-nil.
	Sim    *obs.Sim
	Stalls [isa.NumOps]uint64

	name string // error prefix: "ooo" or "inorder"

	icache     *mem.Cache
	iLineBytes uint64
	lastILine  uint64

	trace      func(stats.TraceEvent)
	traceEvery uint64
	traceLeft  uint64
	disasms    []string // per-static disassembly, built only when tracing
	observed   bool     // trace or Sim set: Retire has more than a count to do

	inHandler  bool
	handlerLen int64 // instructions in the current handler episode

	obsInstrs uint64 // Out.Instrs already pushed to Sim
	obsCycles int64  // cycles already pushed to Sim
}

// New builds the harness for one run of prog. name prefixes its errors.
func New(name string, prog *isa.Program, cfg *Config) (*Harness, error) {
	hier, err := mem.NewHierarchy(cfg.Hier)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	hier.Obs = cfg.Obs
	h := &Harness{
		Hier: hier, BP: bpred.New(cfg.BPredEntries), Gov: govern.New(cfg.Govern),
		Sim: cfg.Obs, name: name, lastILine: ^uint64(0),
		trace: cfg.Trace, traceEvery: cfg.TraceEvery,
	}
	if cfg.ICache.SizeBytes > 0 {
		if h.icache, err = mem.NewCache(cfg.ICache); err != nil {
			return nil, fmt.Errorf("%s: icache: %w", name, err)
		}
		h.iLineBytes = uint64(cfg.ICache.LineBytes)
	}
	probe := hier.ProbeData
	if every := cfg.FlushEvery; every > 0 {
		var refs uint64
		probe = func(addr uint64, write bool) int {
			refs++
			if refs%every == 0 {
				hier.L1.Flush()
			}
			return hier.ProbeData(addr, write)
		}
	}
	h.M = interp.New(prog, cfg.Mode, probe)
	h.Statics = h.M.Statics()
	h.M.TrapThreshold = cfg.TrapThreshold
	if cfg.Faults != nil {
		h.M.Faults = cfg.Faults
		cfg.Faults.SetLineBytes(uint64(cfg.Hier.L1.LineBytes))
	}
	if h.Timing, err = mem.NewTiming(cfg.Timing); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	h.Limit = h.Gov.Budget()
	// Per-opcode execution latencies, resolved once so the issue stage
	// indexes a flat table instead of re-deriving the latency per dynamic
	// instruction.
	for op := range h.Lat {
		h.Lat[op] = int64(cfg.Lat.Latency(isa.Op(op)))
	}
	if h.traceEvery == 0 {
		h.traceEvery = 1
	}
	h.traceLeft = h.traceEvery
	if h.trace != nil {
		h.disasms = h.M.Disasms()
	}
	h.observed = h.trace != nil || h.Sim != nil
	h.Out.IssueWidth = cfg.IssueWidth
	return h, nil
}

// BudgetErr is the error a core aborts with once M.Seq reaches Limit.
func (h *Harness) BudgetErr() error {
	return fmt.Errorf("%s: %w: %w (%d instructions)", h.name, govern.ErrBudget, interp.ErrLimit, h.Limit)
}

// Step executes the next instruction into rec and accounts for it: the
// memory reference and its miss levels, a trap, and the handler episode
// it opens, extends or closes. iMiss reports an instruction-cache miss
// that stalls the fetcher for the L2 latency: sequential next-line
// prefetching hides in-line misses, so only control transfers to cold
// lines stall. On a machine error the core flushes Obs and returns the
// error unwrapped.
func (h *Harness) Step(rec *interp.Rec) (iMiss bool, err error) {
	wasInHandler := h.inHandler
	if err := h.M.StepInto(rec); err != nil {
		return false, err
	}
	if h.icache != nil {
		if line := h.icache.Line(rec.PC); line != h.lastILine {
			sequential := line == h.lastILine+h.iLineBytes
			h.lastILine = line
			if hit, _, _ := h.icache.Access(rec.PC, false); !hit && !sequential {
				h.Out.IMisses++
				iMiss = true
			}
		}
	}
	if h.Statics[rec.SIdx].Mem() {
		h.Out.MemRefs++
		if rec.Level > interp.LevelL1 {
			h.Out.L1Misses++
		}
		if rec.Level > interp.LevelL2 {
			h.Out.L2Misses++
		}
	}
	if rec.Trap {
		h.Out.Traps++
		h.inHandler = true
		h.handlerLen = 0
		if h.Sim != nil {
			h.Sim.Traps.Inc()
		}
	}
	if wasInHandler {
		h.Out.HandlerInsts++
		h.handlerLen++
		if rec.Inst.Op == isa.Rfmh {
			h.inHandler = false
			if h.Sim != nil {
				h.Sim.HandlerOcc.Observe(h.handlerLen)
			}
		}
	}
	return iMiss, nil
}

// Retire counts one retired instruction. With tracing or metrics on it
// also emits the instruction's sampled trace event and observes its miss
// and trap latencies from its pipeline times.
func (h *Harness) Retire(rec *interp.Rec, fetchC, issueC, compC, gradC int64) {
	h.Out.Instrs++
	if h.observed {
		h.observe(rec, fetchC, issueC, compC, gradC)
	}
}

func (h *Harness) observe(rec *interp.Rec, fetchC, issueC, compC, gradC int64) {
	if h.trace != nil {
		if h.traceLeft--; h.traceLeft == 0 {
			h.traceLeft = h.traceEvery
			h.trace(rec.TraceEvent(h.disasms[rec.SIdx], fetchC, issueC, compC, gradC))
		}
	}
	if h.Sim != nil {
		if rec.Level > interp.LevelL1 && h.Statics[rec.SIdx].Load() {
			h.Sim.MissLatency.Observe(compC - issueC)
		}
		if rec.Trap {
			h.Sim.TrapLatency.Observe(gradC - issueC)
		}
	}
}

// FlushObs pushes the batched instruction, cycle and issue-stall counts
// (through cycle now) and the hierarchy's counters to Sim.
func (h *Harness) FlushObs(now int64) {
	if h.Sim == nil {
		return
	}
	h.Sim.Instrs.Add(h.Out.Instrs - h.obsInstrs)
	h.Sim.Cycles.Add(uint64(now - h.obsCycles))
	h.obsInstrs, h.obsCycles = h.Out.Instrs, now
	for op, n := range h.Stalls {
		if n != 0 {
			h.Sim.IssueStalls[op].Add(n)
			h.Stalls[op] = 0
		}
	}
	h.Hier.FlushObs()
}

// Abort wraps cause with a diagnostic snapshot. snap carries the core's
// pipeline detail (Cycle, and ROBOccupied and OldestInst where it has
// them); Abort adds the architectural state and the statistics so far.
func (h *Harness) Abort(cause error, snap govern.Snapshot) error {
	h.FlushObs(snap.Cycle)
	m := h.M
	snap.PC, snap.Seq = m.PC, m.Seq
	snap.InHandler, snap.MHAR, snap.MHRR = m.InHandler, m.MHAR, m.MHRR
	snap.Note = fmt.Sprintf("l1-misses=%d mshr-peak=%d", h.Hier.L1Misses, h.Timing.PeakInUse)
	snap.Partial = h.Out
	snap.Partial.Cycles = snap.Cycle
	snap.Partial.DynInsts = m.Seq
	return govern.WithSnapshot(cause, snap)
}

// Finish flushes Obs and completes the statistics of a run that ended
// after cycles cycles.
func (h *Harness) Finish(cycles int64) stats.Run {
	h.FlushObs(cycles)
	out := h.Out
	out.Cycles = max(cycles, 1)
	out.DynInsts = h.M.Seq
	out.OtherSlots = max(out.TotalSlots()-out.BusySlots()-out.CacheSlots, 0)
	out.BranchLookups = h.BP.Lookups
	out.BranchMispredicts = h.BP.Mispredict
	out.MSHRFullStalls = h.Timing.MSHRFullStalls
	out.MSHRMerges = h.Timing.Merges
	out.MSHRPeak = h.Timing.PeakInUse
	// Per-class miss taxonomy, classified at fill time inside the
	// hierarchy. When the hierarchy sees exactly the architectural
	// reference stream the classes sum to L1Misses/L2Misses
	// (stats.Run.CheckTaxonomy); the out-of-order core's injected §3.3
	// probes additionally classify their own misses.
	out.L1Tax = h.Hier.L1.Taxonomy()
	out.L2Tax = h.Hier.L2.Taxonomy()
	return out
}
