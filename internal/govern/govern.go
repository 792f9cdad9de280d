// Package govern is the run governor shared by every simulator loop in
// this repository (internal/interp, internal/inorder, internal/ooo,
// internal/multi). It bounds runs three ways:
//
//   - an instruction budget (the single place the 1e9-instruction default
//     sentinel is defined — see DefaultBudget);
//   - a context, polled cheaply every CheckEvery units of work, so runs
//     are cancellable by deadline or signal;
//   - a progress watchdog: when a timing core makes no graduation/issue
//     progress for WatchdogCycles cycles, the run aborts with ErrLivelock
//     instead of spinning toward the instruction budget.
//
// On abort the engines attach a diagnostic Snapshot (architectural PC,
// cycle, pipeline occupancy, partial statistics) to the returned error;
// recover it with SnapshotIn.
package govern

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"informing/internal/stats"
)

// Typed abort causes. Engines wrap these (never return them bare), so
// callers test with errors.Is.
var (
	// ErrBudget reports that the dynamic instruction (or reference)
	// budget was exhausted. The engines additionally wrap their legacy
	// limit errors (interp.ErrLimit) so existing errors.Is checks keep
	// working.
	ErrBudget = errors.New("govern: instruction budget exhausted")

	// ErrLivelock reports that the watchdog saw no forward progress for
	// WatchdogCycles cycles.
	ErrLivelock = errors.New("govern: no forward progress (livelock)")

	// ErrCanceled reports that the run's context was cancelled or its
	// deadline expired.
	ErrCanceled = errors.New("govern: run canceled")
)

const (
	// DefaultBudget is the dynamic-instruction guard applied when a
	// configuration leaves MaxInsts zero. This is the one authoritative
	// definition of the historical "limit = 1e9" sentinel that used to be
	// duplicated in interp, ooo and inorder.
	DefaultBudget uint64 = 1e9

	// DefaultWatchdogCycles is the no-progress threshold after which a
	// timing core declares livelock.
	DefaultWatchdogCycles int64 = 1_000_000

	// DefaultCheckEvery is how many units of work (steps, cycles or
	// references) pass between context polls.
	DefaultCheckEvery uint64 = 4096
)

// Config parameterises a Governor. The zero value is valid and yields the
// package defaults with a background (never-cancelled) context.
type Config struct {
	// Ctx cancels the run when done; nil means context.Background().
	Ctx context.Context

	// MaxInsts is the dynamic instruction budget (0 = DefaultBudget).
	MaxInsts uint64

	// WatchdogCycles is the livelock threshold in cycles (0 =
	// DefaultWatchdogCycles; negative disables the watchdog).
	WatchdogCycles int64

	// CheckEvery is the context poll interval in units of work (0 =
	// DefaultCheckEvery).
	CheckEvery uint64
}

// Governor enforces one run's budget, cancellation and watchdog policy.
// It is not safe for concurrent use; each run builds its own.
type Governor struct {
	ctx          context.Context
	budget       uint64
	watchdog     int64
	checkEvery   uint64
	untilPoll    uint64 // ticks remaining until the next context poll
	lastProgress int64
}

// New builds a Governor from cfg, applying the package defaults.
func New(cfg Config) *Governor {
	g := &Governor{
		ctx:        cfg.Ctx,
		budget:     cfg.MaxInsts,
		watchdog:   cfg.WatchdogCycles,
		checkEvery: cfg.CheckEvery,
	}
	if g.ctx == nil {
		g.ctx = context.Background()
	}
	if g.budget == 0 {
		g.budget = DefaultBudget
	}
	if g.watchdog == 0 {
		g.watchdog = DefaultWatchdogCycles
	}
	if g.checkEvery == 0 {
		g.checkEvery = DefaultCheckEvery
	}
	g.untilPoll = g.checkEvery
	return g
}

// Default returns a Governor with every policy at its package default.
func Default() *Governor { return New(Config{}) }

// Budget returns the resolved instruction budget.
func (g *Governor) Budget() uint64 { return g.budget }

// Watchdog returns the resolved no-progress threshold in cycles
// (negative = disabled).
func (g *Governor) Watchdog() int64 { return g.watchdog }

// Tick counts one unit of work and polls the context every CheckEvery
// ticks. It returns nil, or an error wrapping both ErrCanceled and the
// context's own error. The poll uses ctx.Err(), never blocking.
func (g *Governor) Tick() error {
	// Countdown instead of a modulo on a running counter: the polling
	// schedule is identical (first poll on the CheckEvery-th tick) but the
	// per-tick cost is a decrement and compare, not a 64-bit division —
	// Tick sits on the per-cycle hot path of every engine.
	g.untilPoll--
	if g.untilPoll != 0 {
		return nil
	}
	g.untilPoll = g.checkEvery
	return g.CheckCtx()
}

// Horizon returns the latest cycle a timing core that made no progress
// after cycle, and has ticked once for it, may jump to without passing a
// context poll or the watchdog deadline: both then fire at the cycle they
// would have fired at stepping one cycle at a time.
func (g *Governor) Horizon(cycle int64) int64 {
	h := cycle + int64(g.untilPoll)
	if g.watchdog >= 0 {
		h = min(h, g.lastProgress+g.watchdog+1)
	}
	return h
}

// Skip counts n ticks of cycles a core jumped over. n must stay below the
// ticks left until the next poll, which a jump no further than Horizon
// guarantees.
func (g *Governor) Skip(n uint64) { g.untilPoll -= n }

// CheckCtx polls the context immediately (engines call it at natural
// barriers such as phase boundaries).
func (g *Governor) CheckCtx() error {
	if err := g.ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// Progress records that forward progress (graduation, retirement, a
// consumed reference) happened at cycle.
func (g *Governor) Progress(cycle int64) { g.lastProgress = cycle }

// CheckProgress returns an error wrapping ErrLivelock when cycle is more
// than WatchdogCycles past the last recorded progress.
func (g *Governor) CheckProgress(cycle int64) error {
	if g.watchdog < 0 {
		return nil
	}
	if cycle-g.lastProgress > g.watchdog {
		return fmt.Errorf("%w: stalled for %d cycles (last progress at cycle %d)",
			ErrLivelock, g.watchdog, g.lastProgress)
	}
	return nil
}

// Snapshot is the diagnostic state an engine attaches to an abort error:
// enough to see where the run was and what it had measured so far.
type Snapshot struct {
	PC    uint64 // architectural PC at abort
	Cycle int64  // simulation cycle (or clock) at abort
	Seq   uint64 // dynamic instructions (or references) completed

	// Pipeline / machine detail (engine-specific; zero where not
	// applicable).
	ROBOccupied int    // occupied reorder-buffer entries (ooo)
	OldestInst  string // disassembly of the oldest un-retired instruction
	InHandler   bool   // informing miss handler active
	MHAR, MHRR  uint64

	// Partial holds the statistics accumulated up to the abort.
	Partial stats.Run

	// Note carries free-form engine detail (cache occupancy, the
	// processor being advanced, the phase index, ...).
	Note string
}

// String renders the snapshot compactly for CLI diagnostics.
func (s Snapshot) String() string {
	out := fmt.Sprintf("pc=%#x cycle=%d seq=%d", s.PC, s.Cycle, s.Seq)
	if s.ROBOccupied > 0 {
		out += fmt.Sprintf(" rob=%d", s.ROBOccupied)
	}
	if s.OldestInst != "" {
		out += fmt.Sprintf(" oldest=%q", s.OldestInst)
	}
	if s.InHandler {
		out += fmt.Sprintf(" in-handler mhar=%#x mhrr=%#x", s.MHAR, s.MHRR)
	}
	if s.Note != "" {
		out += " " + s.Note
	}
	return out
}

// Abort is an error carrying a diagnostic Snapshot. errors.Is/As see
// through it to the wrapped cause.
type Abort struct {
	Cause error
	Snap  Snapshot
}

// Error implements error.
func (a *Abort) Error() string { return fmt.Sprintf("%v [%v]", a.Cause, a.Snap) }

// Unwrap exposes the cause to errors.Is/As.
func (a *Abort) Unwrap() error { return a.Cause }

// WithSnapshot wraps err with a diagnostic snapshot. A nil err returns
// nil.
func WithSnapshot(err error, snap Snapshot) error {
	if err == nil {
		return nil
	}
	return &Abort{Cause: err, Snap: snap}
}

// SnapshotIn extracts the diagnostic snapshot from an abort error chain.
func SnapshotIn(err error) (*Snapshot, bool) {
	var a *Abort
	if errors.As(err, &a) {
		return &a.Snap, true
	}
	return nil, false
}

// SignalContext returns a context cancelled on SIGINT or SIGTERM; CLIs
// use it so an interrupted simulation still prints its partial report.
// The returned stop function releases the signal handlers (a second
// signal after cancellation kills the process with the default action).
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}
