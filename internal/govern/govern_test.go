package govern

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestDefaults(t *testing.T) {
	g := Default()
	if g.Budget() != DefaultBudget {
		t.Errorf("budget %d, want %d", g.Budget(), DefaultBudget)
	}
	if g.Watchdog() != DefaultWatchdogCycles {
		t.Errorf("watchdog %d, want %d", g.Watchdog(), DefaultWatchdogCycles)
	}
	for i := 0; i < 10_000; i++ {
		if err := g.Tick(); err != nil {
			t.Fatalf("background ctx tick %d: %v", i, err)
		}
	}
}

func TestBudgetOverride(t *testing.T) {
	if got := New(Config{MaxInsts: 42}).Budget(); got != 42 {
		t.Errorf("budget %d, want 42", got)
	}
}

func TestTickCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(Config{Ctx: ctx, CheckEvery: 8})
	for i := 0; i < 7; i++ {
		if err := g.Tick(); err != nil {
			t.Fatalf("premature cancel on tick %d: %v", i, err)
		}
	}
	cancel()
	err := g.Tick() // 8th tick polls the context
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v does not wrap context.Canceled", err)
	}
}

func TestWatchdog(t *testing.T) {
	g := New(Config{WatchdogCycles: 100})
	g.Progress(50)
	if err := g.CheckProgress(150); err != nil {
		t.Fatalf("within threshold: %v", err)
	}
	err := g.CheckProgress(151)
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("err = %v, want ErrLivelock", err)
	}
}

func TestWatchdogDisabled(t *testing.T) {
	g := New(Config{WatchdogCycles: -1})
	if err := g.CheckProgress(1 << 40); err != nil {
		t.Fatalf("disabled watchdog fired: %v", err)
	}
}

func TestAbortSnapshot(t *testing.T) {
	cause := fmt.Errorf("engine: %w", ErrLivelock)
	snap := Snapshot{PC: 0x1000, Cycle: 77, Seq: 12, ROBOccupied: 3, Note: "test"}
	err := WithSnapshot(cause, snap)
	if !errors.Is(err, ErrLivelock) {
		t.Fatalf("abort does not wrap its cause: %v", err)
	}
	got, ok := SnapshotIn(fmt.Errorf("outer: %w", err))
	if !ok {
		t.Fatal("SnapshotIn found nothing")
	}
	if got.PC != 0x1000 || got.Cycle != 77 || got.Seq != 12 || got.ROBOccupied != 3 {
		t.Errorf("snapshot %+v", got)
	}
	if WithSnapshot(nil, snap) != nil {
		t.Error("WithSnapshot(nil) != nil")
	}
	if _, ok := SnapshotIn(errors.New("plain")); ok {
		t.Error("SnapshotIn matched a plain error")
	}
}

// TestHorizonAndSkip: a jump no further than Horizon, counted with Skip,
// leaves the context poll on the tick it would fall on when ticking every
// cycle, and Horizon never passes the watchdog deadline.
func TestHorizonAndSkip(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := New(Config{Ctx: ctx, CheckEvery: 10, WatchdogCycles: 100})
	if err := g.Tick(); err != nil {
		t.Fatalf("tick at cycle 0 polled: %v", err)
	}
	if h := g.Horizon(0); h != 9 {
		t.Fatalf("Horizon(0) = %d, want 9 (the 10th tick polls)", h)
	}
	// Jump over cycles 1..8; the tick for cycle 9 is the 10th and polls.
	g.Skip(8)
	if err := g.Tick(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("tick at cycle 9 returned %v, want ErrCanceled", err)
	}

	g = New(Config{CheckEvery: 1000, WatchdogCycles: 100})
	g.Progress(20)
	if err := g.Tick(); err != nil {
		t.Fatal(err)
	}
	if h := g.Horizon(50); h != 121 {
		t.Errorf("Horizon(50) = %d, want the watchdog deadline 121", h)
	}
	if err := g.CheckProgress(121); !errors.Is(err, ErrLivelock) {
		t.Errorf("CheckProgress(121) = %v, want ErrLivelock", err)
	}

	g = New(Config{CheckEvery: 1000, WatchdogCycles: -1})
	if err := g.Tick(); err != nil {
		t.Fatal(err)
	}
	if h := g.Horizon(50); h != 1049 {
		t.Errorf("disabled watchdog: Horizon(50) = %d, want the poll at 1049", h)
	}
}
