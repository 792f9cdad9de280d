package core

import (
	"context"
	"errors"
	"testing"

	"informing/internal/asm"
	"informing/internal/faults"
	"informing/internal/govern"
	"informing/internal/interp"
	"informing/internal/isa"
	"informing/internal/workload"
)

// buildSpin is an infinite counting loop: it never halts, so only the
// governor (budget, context, watchdog) can end the run.
func buildSpin() *isa.Program {
	b := asm.NewBuilder()
	b.Label("loop")
	b.Addi(isa.R1, isa.R1, 1)
	b.J("loop")
	return b.MustFinish()
}

// buildArrayWalk sums a small array that fits the L1 cache, twice. The
// second pass runs against a warm cache, so its references hit unless a
// fault plan forces them to miss — and a forced miss there cannot merge
// into an in-flight cold-miss fill, so it costs real latency.
func buildArrayWalk() *isa.Program {
	b := asm.NewBuilder()
	arr := b.Alloc("arr", 4<<10)
	b.LoadImm(isa.R5, 2)
	b.Label("pass")
	b.LoadImm(isa.R1, int64(arr))
	b.LoadImm(isa.R2, 4<<10/8)
	b.Label("loop")
	b.Ld(isa.R3, isa.R1, 0, false)
	b.Add(isa.R4, isa.R4, isa.R3)
	b.Addi(isa.R1, isa.R1, 8)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "loop")
	b.Addi(isa.R5, isa.R5, -1)
	b.Bne(isa.R5, isa.R0, "pass")
	b.Halt()
	return b.MustFinish()
}

// TestLivelockDetected wedges the out-of-order pipeline — zero integer
// units, so the first ALU instruction can never issue — and expects the
// watchdog to convert the stall into ErrLivelock with a usable snapshot
// instead of spinning forever.
func TestLivelockDetected(t *testing.T) {
	b := asm.NewBuilder()
	b.Addi(isa.R1, isa.R1, 1)
	b.Halt()
	prog := b.MustFinish()

	cfg := R10000(Off)
	cfg.OOO.Units[isa.FUInt] = 0
	cfg.OOO.Govern.WatchdogCycles = 5000
	_, _, err := cfg.RunDetailed(prog)
	if !errors.Is(err, govern.ErrLivelock) {
		t.Fatalf("wedged pipeline returned %v, want ErrLivelock", err)
	}
	snap, ok := govern.SnapshotIn(err)
	if !ok {
		t.Fatal("livelock abort carries no snapshot")
	}
	if snap.ROBOccupied == 0 || snap.OldestInst == "" {
		t.Errorf("snapshot missing pipeline detail: %v", snap)
	}
	// Nothing ever issues, so the last progress is the governor's start
	// mark, cycle 0, and the watchdog fires on the first cycle more than
	// 5000 cycles later.
	if snap.Cycle != 5001 {
		t.Errorf("aborted at cycle %d, want 5001 (one past the %d-cycle watchdog)",
			snap.Cycle, cfg.OOO.Govern.WatchdogCycles)
	}
}

// TestLivelockBehindLongOp pins the exact abort cycle when the pipeline
// waits on one instruction whose latency outlasts the watchdog: after
// the last progress, at cycle 17, nothing can happen until a 20000-cycle
// divide completes, so the watchdog must fire at its own deadline, not
// wherever the next event lies.
func TestLivelockBehindLongOp(t *testing.T) {
	b := asm.NewBuilder()
	b.Addi(isa.R1, isa.R0, 7)
	b.Addi(isa.R2, isa.R0, 3)
	b.Div(isa.R3, isa.R1, isa.R2)
	b.Addi(isa.R4, isa.R3, 1)
	b.Halt()
	prog := b.MustFinish()

	cfg := R10000(Off)
	cfg.OOO.Lat.IntDiv = 20000
	cfg.OOO.Govern.WatchdogCycles = 5000
	_, _, err := cfg.RunDetailed(prog)
	if !errors.Is(err, govern.ErrLivelock) {
		t.Fatalf("long divide returned %v, want ErrLivelock", err)
	}
	snap, ok := govern.SnapshotIn(err)
	if !ok {
		t.Fatal("livelock abort carries no snapshot")
	}
	if snap.Cycle != 5018 || snap.ROBOccupied != 3 {
		t.Errorf("aborted at cycle %d with %d in the ROB, want cycle 5018 with 3", snap.Cycle, snap.ROBOccupied)
	}
}

// TestCancelAtFirstPoll pins the exact cycle of a context abort: with the
// context canceled before the run, the out-of-order core stops at the
// first poll, cycle CheckEvery-1, with the same fetched and graduated
// work however it got there. With a poll every 930 cycles the poll falls
// while the window waits on misses and nothing can act.
func TestCancelAtFirstPoll(t *testing.T) {
	bm, ok := workload.ByName("tomcatv")
	if !ok {
		t.Fatal("unknown benchmark tomcatv")
	}
	prog, err := workload.Build(bm, workload.NewPlanSingle(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		every      uint64
		cycle      int64
		seq        uint64
		robEntries int
	}{
		{1000, 999, 384, 17},
		{930, 929, 359, 32},
	} {
		cfg := R10000(TrapBranch).WithContext(ctx)
		cfg.OOO.Govern.CheckEvery = tc.every
		_, _, err := cfg.RunDetailed(prog)
		if !errors.Is(err, govern.ErrCanceled) {
			t.Fatalf("poll every %d: canceled run returned %v, want ErrCanceled", tc.every, err)
		}
		snap, ok := govern.SnapshotIn(err)
		if !ok {
			t.Fatalf("poll every %d: cancel abort carries no snapshot", tc.every)
		}
		if snap.Cycle != tc.cycle || snap.Seq != tc.seq || snap.ROBOccupied != tc.robEntries {
			t.Errorf("poll every %d: aborted at cycle %d, seq %d, %d in the ROB; want cycle %d, seq %d, %d",
				tc.every, snap.Cycle, snap.Seq, snap.ROBOccupied, tc.cycle, tc.seq, tc.robEntries)
		}
	}
}

// TestBudgetErrorsAreTyped: exhausting the instruction budget must report
// both the new govern.ErrBudget and the legacy interp.ErrLimit sentinel,
// on both machines, with partial statistics attached. It is the one
// budget test for both cores: the budget lives in Govern.MaxInsts and is
// enforced by the shared harness (internal/pipe).
func TestBudgetErrorsAreTyped(t *testing.T) {
	prog := buildSpin()
	for _, machine := range []func(Scheme) Config{R10000, Alpha21164} {
		cfg := machine(Off).WithMaxInsts(10_000)
		run, _, err := cfg.RunDetailed(prog)
		if !errors.Is(err, govern.ErrBudget) {
			t.Fatalf("%v: budget exhaustion returned %v, want ErrBudget", cfg.Machine, err)
		}
		if !errors.Is(err, interp.ErrLimit) {
			t.Errorf("%v: budget error does not wrap interp.ErrLimit", cfg.Machine)
		}
		snap, ok := govern.SnapshotIn(err)
		if !ok {
			t.Fatalf("%v: budget abort carries no snapshot", cfg.Machine)
		}
		if snap.Partial.DynInsts < 10_000 || run.Instrs == 0 {
			t.Errorf("%v: partial stats missing: snap=%v run.Instrs=%d",
				cfg.Machine, snap, run.Instrs)
		}
	}
}

// TestContextCancelAborts: a cancelled context ends a non-terminating run
// at the next governor poll on both machines.
func TestContextCancelAborts(t *testing.T) {
	prog := buildSpin()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, machine := range []func(Scheme) Config{R10000, Alpha21164} {
		cfg := machine(Off).WithContext(ctx)
		_, _, err := cfg.RunDetailed(prog)
		if !errors.Is(err, govern.ErrCanceled) {
			t.Fatalf("%v: cancelled run returned %v, want ErrCanceled", cfg.Machine, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: abort does not wrap context.Canceled", cfg.Machine)
		}
		if _, ok := govern.SnapshotIn(err); !ok {
			t.Errorf("%v: cancel abort carries no snapshot", cfg.Machine)
		}
	}
}

// TestCancelSnapshotMatchesCore: an abort snapshot describes the state
// the timing core actually fetched, not a functional machine running
// ahead of it. A run canceled before it starts stops at the first context
// poll; by then the out-of-order core has graduated Partial.Instrs
// instructions and holds ROBOccupied more, and the machine has executed
// exactly those, while the in-order core steps at most the instruction it
// is retiring.
func TestCancelSnapshotMatchesCore(t *testing.T) {
	bm, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("unknown benchmark compress")
	}
	prog, err := workload.Build(bm, workload.NewPlanSingle(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cfg := range bothMachines(TrapBranch) {
		_, _, err := cfg.WithContext(ctx).RunDetailed(prog)
		if !errors.Is(err, govern.ErrCanceled) {
			t.Fatalf("%v: canceled run returned %v, want ErrCanceled", cfg.Machine, err)
		}
		snap, ok := govern.SnapshotIn(err)
		if !ok {
			t.Fatalf("%v: cancel abort carries no snapshot", cfg.Machine)
		}
		if snap.Partial.Instrs == 0 {
			t.Fatalf("%v: nothing retired before the abort; the check is vacuous", cfg.Machine)
		}
		if snap.Partial.DynInsts != snap.Seq {
			t.Errorf("%v: Partial.DynInsts %d, Seq %d", cfg.Machine, snap.Partial.DynInsts, snap.Seq)
		}
		if cfg.Machine == OutOfOrder {
			if got := snap.Partial.Instrs + uint64(snap.ROBOccupied); snap.Seq != got {
				t.Errorf("%v: Seq %d, want graduated %d + in ROB %d = %d",
					cfg.Machine, snap.Seq, snap.Partial.Instrs, snap.ROBOccupied, got)
			}
		} else if snap.Seq < snap.Partial.Instrs || snap.Seq-snap.Partial.Instrs > 1 {
			t.Errorf("%v: Seq %d, retired %d; want at most one instruction in flight",
				cfg.Machine, snap.Seq, snap.Partial.Instrs)
		}
	}
}

// TestForcedMissesPerturbOnlyTiming: a forced-miss plan must raise the
// measured miss count while leaving the architectural results — registers
// and data memory — identical to the clean run. (The miss counter and
// cache condition code legitimately differ: they observe the hierarchy.)
func TestForcedMissesPerturbOnlyTiming(t *testing.T) {
	prog := buildArrayWalk()
	for _, machine := range []func(Scheme) Config{R10000, Alpha21164} {
		cfg := machine(Off)
		clean, cleanM, err := cfg.RunDetailed(prog)
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.New(faults.Plan{Seed: 42, Rules: []faults.Rule{
			{Kind: faults.ForceMiss, EveryN: 4},
		}})
		forced, forcedM, err := cfg.WithFaults(inj).RunDetailed(prog)
		if err != nil {
			t.Fatal(err)
		}
		if forced.L1Misses <= clean.L1Misses {
			t.Errorf("%v: forced misses did not raise the miss count: %d vs %d",
				cfg.Machine, forced.L1Misses, clean.L1Misses)
		}
		if inj.Stats().ForcedMisses == 0 {
			t.Errorf("%v: no forced misses recorded by the injector", cfg.Machine)
		}
		if forcedM.G != cleanM.G || forcedM.FR != cleanM.FR {
			t.Errorf("%v: forced misses changed register state", cfg.Machine)
		}
		if !forcedM.Mem.Equal(cleanM.Mem) {
			t.Errorf("%v: forced misses changed data memory", cfg.Machine)
		}
		if forced.Cycles <= clean.Cycles {
			t.Errorf("%v: forced misses did not slow the run: %d vs %d cycles",
				cfg.Machine, forced.Cycles, clean.Cycles)
		}
	}
}

// TestJitterPreservesArchitecture is the scheme differential test: latency
// jitter on the memory system must leave every piece of architectural
// state — registers, memory, trap and miss counts, handler linkage —
// identical under both informing schemes on both machines, because timing
// never feeds back into architecture.
func TestJitterPreservesArchitecture(t *testing.T) {
	prog := buildDualScheme()
	for _, machine := range []func(Scheme) Config{R10000, Alpha21164} {
		for _, scheme := range []Scheme{TrapBranch, CondCode} {
			cfg := machine(scheme).WithMaxInsts(10_000_000)
			clean, cleanM, err := cfg.RunDetailed(prog)
			if err != nil {
				t.Fatal(err)
			}
			inj := faults.New(faults.Plan{Seed: 7, Rules: []faults.Rule{
				{Kind: faults.Jitter, EveryN: 2, MaxDelay: 9},
			}})
			jit, jitM, err := cfg.WithFaults(inj).RunDetailed(prog)
			if err != nil {
				t.Fatal(err)
			}
			name := cfg.Machine.String() + "/" + scheme.String()
			if inj.Stats().Jittered == 0 {
				t.Fatalf("%s: jitter plan never fired", name)
			}
			if jitM.G != cleanM.G || jitM.FR != cleanM.FR {
				t.Errorf("%s: jitter changed register state", name)
			}
			if !jitM.Mem.Equal(cleanM.Mem) {
				t.Errorf("%s: jitter changed data memory", name)
			}
			if jitM.Traps != cleanM.Traps || jitM.MissCounter != cleanM.MissCounter ||
				jitM.BmissTaken != cleanM.BmissTaken {
				t.Errorf("%s: jitter changed informing counts: traps %d/%d misses %d/%d",
					name, jitM.Traps, cleanM.Traps, jitM.MissCounter, cleanM.MissCounter)
			}
			if jitM.PC != cleanM.PC || jitM.Seq != cleanM.Seq {
				t.Errorf("%s: jitter changed control flow", name)
			}
			if jit.Traps != clean.Traps || jit.L1Misses != clean.L1Misses {
				t.Errorf("%s: jitter changed measured miss/trap counts", name)
			}
			if jit.Cycles < clean.Cycles {
				t.Errorf("%s: jittered run finished faster: %d vs %d cycles",
					name, jit.Cycles, clean.Cycles)
			}
		}
	}
}
