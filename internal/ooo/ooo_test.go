package ooo

import (
	"testing"

	"informing/internal/asm"
	"informing/internal/interp"
	"informing/internal/isa"
	"informing/internal/mem"
	"informing/internal/stats"
	"informing/internal/workload"
)

func runCfg(t *testing.T, src string, mutate func(*Config)) stats.Run {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Govern.MaxInsts = 10_000_000
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r
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

func TestSerialChainOneIPC(t *testing.T) {
	src := ""
	for i := 0; i < 400; i++ {
		src += "addi r1, r1, 1\n"
	}
	src += "halt"
	r := runCfg(t, src, nil)
	if r.Cycles < 400 || r.Cycles > 450 {
		t.Errorf("serial chain: %d cycles", r.Cycles)
	}
}

func TestIndependentALUWideIssue(t *testing.T) {
	src := ""
	for i := 0; i < 400; i++ {
		src += "addi r" + itoa(2+i%8) + ", r0, 1\n"
	}
	src += "halt"
	r := runCfg(t, src, nil)
	// 2 INT units bound throughput even with a 32-entry window.
	if r.IPC() < 1.7 || r.IPC() > 2.2 {
		t.Errorf("independent ALU IPC %.2f, want ~2", r.IPC())
	}
}

func TestIndependentMissesOverlap(t *testing.T) {
	b := asm.NewBuilder()
	base := b.Alloc("buf", 256<<10)
	b.LoadImm(isa.R1, int64(base))
	for i := 0; i < 8; i++ {
		b.Ld(isa.R(2+i), isa.R1, int64(i*8192), false)
	}
	b.Halt()
	cfg := DefaultConfig()
	r, err := Run(b.MustFinish(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Eight serial misses would be ~600 cycles; overlapped under the
	// bandwidth limit they finish in well under half that.
	if r.Cycles > 300 {
		t.Errorf("independent misses not overlapped: %d cycles", r.Cycles)
	}
	if r.MSHRPeak < 4 {
		t.Errorf("MSHR peak %d: no memory parallelism", r.MSHRPeak)
	}
}

func TestROBLimitsOverlap(t *testing.T) {
	// A long miss at the head plus >32 subsequent instructions: a bigger
	// reorder buffer allows more of them to complete under the miss.
	src := `
		.data buf 262144
		la r1, buf
		li r16, 50
	top:
		ld r2, 0(r1)
		addi r1, r1, 8192
	`
	for i := 0; i < 40; i++ {
		src += "addi r" + itoa(3+i%6) + ", r0, 1\n"
	}
	src += `
		addi r16, r16, -1
		bne r16, r0, top
		halt`
	small := runCfg(t, src, func(c *Config) { c.ROBSize = 8 })
	big := runCfg(t, src, func(c *Config) { c.ROBSize = 64 })
	if big.Cycles >= small.Cycles {
		t.Errorf("larger ROB did not help: %d vs %d", big.Cycles, small.Cycles)
	}
}

func TestShadowStateLimitThrottlesBranches(t *testing.T) {
	// Dense data-dependent branches: with one shadow state, fetch must
	// serialise on every unresolved branch.
	src := "li r16, 2000\ntop:\n"
	src += `
		xori r5, r5, 1
		bne r5, r0, s1
	s1:	xori r6, r6, 1
		bne r6, r0, s2
	s2:	xori r7, r7, 1
		bne r7, r0, s3
	s3:
		addi r16, r16, -1
		bne r16, r0, top
		halt`
	tight := runCfg(t, src, func(c *Config) { c.ShadowStates = 1 })
	loose := runCfg(t, src, func(c *Config) { c.ShadowStates = 12 })
	if tight.Cycles <= loose.Cycles {
		t.Errorf("shadow limit had no effect: %d vs %d", tight.Cycles, loose.Cycles)
	}
}

func sweepSrc(k int) string {
	s := "j start\nhandler:\n"
	for i := 0; i < k; i++ {
		s += "addi r20, r20, 1\n"
	}
	s += "rfmh\nstart:\nmtmhar handler\n"
	return s + `
		.data buf 131072
		la r1, buf
		li r2, 16384
	loop:
		ld.i r3, 0(r1)
		addi r1, r1, 8
		addi r2, r2, -1
		bne r2, r0, loop
		halt`
}

func TestTrapAsBranchBeatsException(t *testing.T) {
	br := runCfg(t, sweepSrc(1), func(c *Config) { c.Mode = interp.ModeTrap; c.Trap = TrapAsBranch })
	ex := runCfg(t, sweepSrc(1), func(c *Config) { c.Mode = interp.ModeTrap; c.Trap = TrapAsException })
	if br.Traps == 0 || br.Traps != ex.Traps {
		t.Fatalf("trap counts differ: %d vs %d", br.Traps, ex.Traps)
	}
	if ex.Cycles <= br.Cycles {
		t.Errorf("exception handling not slower: branch=%d exception=%d", br.Cycles, ex.Cycles)
	}
}

func TestTrapCountsMatchMisses(t *testing.T) {
	r := runCfg(t, sweepSrc(1), func(c *Config) { c.Mode = interp.ModeTrap })
	if r.Traps != r.L1Misses {
		t.Errorf("traps %d != L1 misses %d", r.Traps, r.L1Misses)
	}
	if r.HandlerInsts != r.Traps*2 {
		t.Errorf("handler instrs %d, want %d", r.HandlerInsts, r.Traps*2)
	}
}

func TestHandlerOverlapsUnderMiss(t *testing.T) {
	// The out-of-order core should hide much of a 10-instruction handler
	// under the miss: the marginal cost per trap must be far below 10
	// cycles + redirect.
	base := runCfg(t, sweepSrc(1), func(c *Config) { c.Mode = interp.ModeTrap })
	ten := runCfg(t, sweepSrc(10), func(c *Config) { c.Mode = interp.ModeTrap })
	perTrap := float64(ten.Cycles-base.Cycles) / float64(ten.Traps)
	if perTrap > 9 {
		t.Errorf("10-vs-1 instruction handler costs %.1f cycles/trap; no overlap", perTrap)
	}
}

func TestSpeculativeInvalidation(t *testing.T) {
	r := runCfg(t, sweepSrc(1), func(c *Config) {
		c.Mode = interp.ModeTrap
		c.ExtendMSHRLifetime = true
		c.SpecInjectEvery = 16
		c.SpecInjectStride = 4096
	})
	if r.SpecInvalidates == 0 {
		t.Error("no speculative invalidations recorded")
	}
	// The paper's observation: extending MSHR lifetimes does not require
	// more than the 8 registers.
	if r.MSHRPeak > 8 {
		t.Errorf("MSHR peak %d exceeds the 8 provisioned", r.MSHRPeak)
	}
}

func TestExtendLifetimeAloneIsHarmless(t *testing.T) {
	plain := runCfg(t, sweepSrc(1), func(c *Config) { c.Mode = interp.ModeTrap })
	ext := runCfg(t, sweepSrc(1), func(c *Config) {
		c.Mode = interp.ModeTrap
		c.ExtendMSHRLifetime = true
	})
	if ext.Traps != plain.Traps || ext.DynInsts != plain.DynInsts {
		t.Error("extend-lifetime changed architectural behaviour")
	}
	// Timing may differ slightly (MSHR pressure) but must stay sane.
	ratio := float64(ext.Cycles) / float64(plain.Cycles)
	if ratio > 1.5 {
		t.Errorf("extend-lifetime cost ratio %.2f", ratio)
	}
}

func TestCondCodeScheme(t *testing.T) {
	src := `
		.data buf 131072
		la r1, buf
		li r2, 16384
	loop:
		ld r3, 0(r1)
		bmiss r22, count
	back:
		addi r1, r1, 8
		addi r2, r2, -1
		bne r2, r0, loop
		halt
	count:
		addi r20, r20, 1
		jr r22`
	r := runCfg(t, src, func(c *Config) { c.Mode = interp.ModeCondCode })
	if r.BmissTaken != r.L1Misses {
		t.Errorf("BMISS taken %d != misses %d", r.BmissTaken, r.L1Misses)
	}
	if r.Traps != 0 {
		t.Error("condition-code mode fired traps")
	}
}

func TestSlotAccountingConsistent(t *testing.T) {
	for _, src := range []string{sweepSrc(1), sweepSrc(10)} {
		r := runCfg(t, src, func(c *Config) { c.Mode = interp.ModeTrap })
		// Run.Check covers the slot-partition and Instrs==DynInsts
		// invariants in one place (shared with the inorder engine's test).
		if err := r.Check(); err != nil {
			t.Errorf("run fails stats.Check: %v", err)
		}
	}
}

func TestDeterministicTiming(t *testing.T) {
	a := runCfg(t, sweepSrc(10), func(c *Config) { c.Mode = interp.ModeTrap })
	b := runCfg(t, sweepSrc(10), func(c *Config) { c.Mode = interp.ModeTrap })
	if a != b {
		t.Error("out-of-order model is nondeterministic")
	}
}

func TestICacheMissesOnHandlerEntry(t *testing.T) {
	// A single tight handler stays I-resident; a large body of unique
	// handler code (the U100 plan shape) does not fit the 32 KB I-cache
	// and pays fetch stalls on handler entry.
	small := runCfg(t, sweepSrc(1), func(c *Config) { c.Mode = interp.ModeTrap })
	if small.IMisses > 50 {
		t.Errorf("tight loop + single handler took %d I-misses", small.IMisses)
	}
	off := runCfg(t, sweepSrc(1), func(c *Config) {
		c.Mode = interp.ModeTrap
		c.ICache = mem.CacheConfig{}
	})
	if off.IMisses != 0 {
		t.Errorf("disabled I-cache recorded %d misses", off.IMisses)
	}
	if off.Cycles > small.Cycles {
		t.Errorf("perfect I-fetch slower than modelled: %d vs %d", off.Cycles, small.Cycles)
	}
}

func TestMispredictBlocksFetch(t *testing.T) {
	biased := runCfg(t, loopSrc("beq r0, r0"), nil)
	alt := runCfg(t, loopSrc("bne r5, r0"), nil)
	if alt.Cycles <= biased.Cycles {
		t.Errorf("mispredicts free: %d vs %d", alt.Cycles, biased.Cycles)
	}
}

func loopSrc(cond string) string {
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

// TestDeadCycleSkip proves the dead-cycle skip is live: the cycle loop must
// run markedly fewer iterations than the run has cycles where the window
// sits behind misses (compress S1), while espresso, whose cycles almost
// all do work, is the near-bypass control and carries no bound.
func TestDeadCycleSkip(t *testing.T) {
	for _, tc := range []struct {
		bench    string
		maxRatio float64 // 0 = no bound
	}{
		{"compress", 0.75},
		{"espresso", 0},
	} {
		bm, ok := workload.ByName(tc.bench)
		if !ok {
			t.Fatalf("unknown benchmark %s", tc.bench)
		}
		prog, err := workload.Build(bm, workload.NewPlanSingle(1), 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Mode = interp.ModeTrap
		cfg.Trap = TrapAsBranch
		var iters int64
		iterationHook = func() { iters++ }
		r, err := Run(prog, cfg)
		iterationHook = nil
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(iters) / float64(r.Cycles)
		t.Logf("%s S1: %d iterations for %d cycles (%.2f)", tc.bench, iters, r.Cycles, ratio)
		if tc.maxRatio > 0 && ratio > tc.maxRatio {
			t.Errorf("%s S1: %d iterations for %d cycles (%.2f), want at most %.2f: dead cycles are not skipped",
				tc.bench, iters, r.Cycles, ratio, tc.maxRatio)
		}
		if iters > r.Cycles {
			t.Errorf("%s S1: %d iterations exceed %d cycles", tc.bench, iters, r.Cycles)
		}
	}
}
