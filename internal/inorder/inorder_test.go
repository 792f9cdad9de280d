package inorder

import (
	"testing"

	"informing/internal/asm"
	"informing/internal/interp"
	"informing/internal/isa"
	"informing/internal/stats"
)

func runSrc(t *testing.T, src string, mode interp.Mode) stats.Run {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Mode = mode
	cfg.Govern.MaxInsts = 10_000_000
	r, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r
}

// chain emits n serially dependent adds.
func chain(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += "addi r1, r1, 1\n"
	}
	return s + "halt"
}

func TestSerialChainThroughput(t *testing.T) {
	r := runSrc(t, chain(400), interp.ModeOff)
	// A serial add chain retires one instruction per cycle.
	if r.Cycles < 400 || r.Cycles > 450 {
		t.Errorf("serial chain of 400: %d cycles", r.Cycles)
	}
	if r.IPC() > 1.05 {
		t.Errorf("serial chain IPC %.2f > 1", r.IPC())
	}
}

func TestIndependentALUThroughput(t *testing.T) {
	src := ""
	for i := 0; i < 400; i++ {
		src += "addi r" + itoa(2+i%8) + ", r0, 1\n"
	}
	src += "halt"
	r := runSrc(t, src, interp.ModeOff)
	// Two integer units: about two per cycle.
	if r.IPC() < 1.6 {
		t.Errorf("independent ALU IPC %.2f, want ~2", r.IPC())
	}
	if r.IPC() > 2.2 {
		t.Errorf("independent ALU IPC %.2f exceeds 2 INT units", r.IPC())
	}
}

func TestLoadUseLatency(t *testing.T) {
	// Back-to-back dependent load-use pairs on resident data.
	src := ".data buf 64\nla r1, buf\nld r2, 0(r1)\n" // warm the line
	for i := 0; i < 100; i++ {
		src += "ld r2, 0(r1)\nadd r3, r2, r2\n"
	}
	src += "halt"
	r := runSrc(t, src, interp.ModeOff)
	// Each pair costs >= 2 cycles (load-use) with 1 memory port.
	if r.Cycles < 200 {
		t.Errorf("load-use pairs too fast: %d cycles for 100 pairs", r.Cycles)
	}
}

func TestDependentMissChainSerialises(t *testing.T) {
	// Chase through 64 nodes spread over 128 KB (built via Init words so
	// the chase is cold): every hop is a dependent memory-latency round
	// trip that cannot overlap with the next.
	b := asm.NewBuilder()
	const nodes = 64
	base := b.Alloc("nodes", 160<<10)
	stride := uint64(2048 + 32) // distinct lines and DM sets
	for i := uint64(0); i < nodes; i++ {
		b.InitWord(base+i*stride, base+(i+1)*stride)
	}
	b.LoadImm(isa.R1, int64(base))
	b.LoadImm(isa.R2, nodes)
	b.Label("chase")
	b.Ld(isa.R3, isa.R1, 0, false)
	b.Move(isa.R1, isa.R3)
	b.Addi(isa.R2, isa.R2, -1)
	b.Bne(isa.R2, isa.R0, "chase")
	b.Halt()
	p := b.MustFinish()
	cfg := DefaultConfig()
	cfg.Govern.MaxInsts = 1_000_000
	r, err := Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.L1Misses != nodes {
		t.Errorf("misses %d, want %d", r.L1Misses, nodes)
	}
	// Serial cold misses: at least ~45 cycles each.
	if r.Cycles < nodes*45 {
		t.Errorf("dependent misses overlapped: %d cycles for %d serial misses", r.Cycles, nodes)
	}
	if r.CacheSlots < r.TotalSlots()/2 {
		t.Errorf("cache slots %d of %d: chase should be cache-bound", r.CacheSlots, r.TotalSlots())
	}
}

func TestMSHROverlap(t *testing.T) {
	// Eight independent misses should overlap in the lockup-free cache.
	src := ".data buf 131072\nla r1, buf\n"
	for i := 0; i < 8; i++ {
		src += "ld r" + itoa(2+i) + ", " + itoa(i*4096) + "(r1)\n"
	}
	src += "halt"
	r := runSrc(t, src, interp.ModeOff)
	// Serial misses would cost ~8*50 = 400; overlapped, far less.
	if r.Cycles > 300 {
		t.Errorf("independent misses did not overlap: %d cycles", r.Cycles)
	}
}

func TestBranchMispredictPenalty(t *testing.T) {
	// A data-dependent 50/50 branch vs an always-taken loop branch.
	biased := runSrc(t, loopWithCond("beq r0, r0"), interp.ModeOff)
	// Alternating branch: flips every iteration, 2-bit counters stay
	// confused at ~50%.
	alt := runSrc(t, loopWithCond("bne r5, r0"), interp.ModeOff)
	if alt.Cycles <= biased.Cycles {
		t.Errorf("mispredictions not penalised: alt=%d biased=%d", alt.Cycles, biased.Cycles)
	}
	if alt.BranchMispredicts < 100 {
		t.Errorf("alternating branch mispredicts %d", alt.BranchMispredicts)
	}
}

// loopWithCond builds a 400-iteration loop whose body contains a
// conditional branch over one instruction; cond is the branch condition
// ("beq r0, r0" is always taken, "bne r5, r0" alternates via r5).
func loopWithCond(cond string) string {
	return `
		li r16, 400
	top:
		xori r5, r5, 1
		` + cond + `, skip
		addi r2, r2, 1
	skip:
		addi r16, r16, -1
		bne r16, r0, top
		halt`
}

func TestInformingReplayTrapCost(t *testing.T) {
	base := runSrc(t, sweep(false), interp.ModeOff)
	inf := runSrc(t, sweep(true), interp.ModeTrap)
	if inf.Traps == 0 {
		t.Fatal("no traps fired")
	}
	if inf.Traps != inf.L1Misses {
		t.Errorf("traps %d != misses %d", inf.Traps, inf.L1Misses)
	}
	if inf.Cycles <= base.Cycles {
		t.Errorf("informing handler was free: %d vs %d", inf.Cycles, base.Cycles)
	}
	if inf.HandlerInsts != inf.Traps*2 {
		t.Errorf("handler instructions %d, want %d", inf.HandlerInsts, inf.Traps*2)
	}
}

func sweep(armed bool) string {
	s := "j start\nhandler:\naddi r20, r20, 1\nrfmh\nstart:\n"
	if armed {
		s += "mtmhar handler\n"
	}
	return s + `
		.data buf 65536
		la r1, buf
		li r2, 8192
	loop:
		ld.i r3, 0(r1)
		addi r1, r1, 8
		addi r2, r2, -1
		bne r2, r0, loop
		halt`
}

func TestSlotAccountingConsistent(t *testing.T) {
	for _, src := range []string{chain(100), sweep(false), loopWithCond("bne r5, r0")} {
		r := runSrc(t, src, interp.ModeOff)
		// Run.Check covers the slot-partition and Instrs==DynInsts
		// invariants in one place (shared with the ooo engine's test).
		if err := r.Check(); err != nil {
			t.Errorf("run fails stats.Check: %v", err)
		}
	}
}

func TestFPLatencies(t *testing.T) {
	// Serial FP adds at 4 cycles each (in-order model).
	src := ".float c 1.0\nla r1, c\nfld f1, 0(r1)\n"
	for i := 0; i < 100; i++ {
		src += "fadd f1, f1, f1\n"
	}
	src += "halt"
	r := runSrc(t, src, interp.ModeOff)
	if r.Cycles < 400 {
		t.Errorf("serial fadd chain too fast: %d cycles", r.Cycles)
	}
	// Serial divides at 17 cycles each.
	src2 := ".float c 1.0\nla r1, c\nfld f1, 0(r1)\n"
	for i := 0; i < 50; i++ {
		src2 += "fdiv f1, f1, f1\n"
	}
	src2 += "halt"
	r2 := runSrc(t, src2, interp.ModeOff)
	if r2.Cycles < 50*17 {
		t.Errorf("serial fdiv chain too fast: %d cycles", r2.Cycles)
	}
}

func TestDeterministicTiming(t *testing.T) {
	a := runSrc(t, sweep(true), interp.ModeTrap)
	b := runSrc(t, sweep(true), interp.ModeTrap)
	if a != b {
		t.Error("in-order model is nondeterministic")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
