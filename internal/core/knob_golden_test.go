package core

import (
	"fmt"
	"strings"
	"testing"

	"informing/internal/faults"
	"informing/internal/interp"
	"informing/internal/isa"
	"informing/internal/progen"
)

// TestKnobGolden pins cycle-exact timing under the core knobs the paper
// tables never turn on: trap-as-exception, ExtendMSHRLifetime,
// SpecInjectEvery, FlushEvery, TrapThreshold, a seeded fault-injected
// latency jitter, a machine without an instruction cache and one with
// two branch shadow states, where the shadow gate binds. Each row is
// one progen seed on one machine with a seed-derived subset of the knobs
// on (knobsOn). The rows hold the full stats.Run (miss taxonomy
// included) and the final architectural fingerprint, so a scheduler
// change that shifts one stall by a cycle under a rarely used knob shows
// up here. They live in the one golden table (golden_data_test.go).

// knob is one core knob of the golden table.
type knob uint8

const (
	knobTrapException knob = iota // trap-mode seeds only: exception-style traps
	knobExtendMSHR                // out-of-order only
	knobSpecInject                // out-of-order only
	knobFlushEvery
	knobTrapThreshold // traps on secondary misses only
	knobJitter
	knobNoICache
	knobFewShadows // out-of-order only
	numKnobs
)

var knobNames = [numKnobs]string{"exc", "mshr", "spec", "flush", "thresh", "jitter", "noicache", "shadow2"}

const knobGoldenSeeds = 32

// knobsOn is row i's knob set: knob k is on in alternating runs of k+1
// rows, so each knob is on in about half the rows, in a different
// combination on each, and row 0 has every knob on. (The two trap knobs
// act only on trap-mode seeds; each still meets at least four of them.)
func knobsOn(i int) (on [numKnobs]bool) {
	for k := range on {
		on[k] = (i/(k+1))%2 == 0
	}
	return on
}

type knobCell struct {
	seed    int64
	machine Machine
	on      [numKnobs]bool
}

func knobGoldenCells() []knobCell {
	var cells []knobCell
	for i := 0; i < knobGoldenSeeds; i++ {
		for _, m := range []Machine{OutOfOrder, InOrder} {
			cells = append(cells, knobCell{int64(i), m, knobsOn(i)})
		}
	}
	return cells
}

func (c knobCell) key() string {
	var names []string
	for k, on := range c.on {
		if on {
			names = append(names, knobNames[k])
		}
	}
	if len(names) == 0 {
		names = append(names, "none")
	}
	return fmt.Sprintf("seed%02d/%s/%s", c.seed, c.machine, strings.Join(names, "+"))
}

// setup generates the cell's program and builds its machine.
func (c knobCell) setup(t *testing.T) (Config, *isa.Program) {
	p := progen.Generate(c.seed)
	scheme := Off
	switch p.Mode {
	case progen.Trap:
		scheme = TrapBranch
		if c.on[knobTrapException] {
			scheme = TrapException
		}
	case progen.CondCode:
		scheme = CondCode
	}
	var cfg Config
	if c.machine == InOrder {
		cfg = Alpha21164(scheme)
	} else {
		cfg = R10000(scheme)
	}
	cfg = cfg.WithPolicy(p.Policy).WithMaxInsts(2_000_000)
	if c.on[knobExtendMSHR] {
		cfg.OOO.ExtendMSHRLifetime = true
	}
	if c.on[knobSpecInject] {
		cfg.OOO.SpecInjectEvery, cfg.OOO.SpecInjectStride = 5, 4096
	}
	if c.on[knobFlushEvery] {
		cfg.OOO.FlushEvery, cfg.IO.FlushEvery = 97, 97
	}
	if c.on[knobTrapThreshold] {
		cfg.OOO.TrapThreshold, cfg.IO.TrapThreshold = interp.LevelL2, interp.LevelL2
	}
	if c.on[knobJitter] {
		cfg = cfg.WithFaults(faults.New(faults.Plan{Seed: uint64(c.seed) + 1, Rules: []faults.Rule{
			{Kind: faults.Jitter, EveryN: 3, MaxDelay: 9},
		}}))
	}
	if c.on[knobNoICache] {
		cfg.OOO.ICache.SizeBytes, cfg.IO.ICache.SizeBytes = 0, 0
	}
	if c.on[knobFewShadows] {
		cfg.OOO.ShadowStates = 2
	}
	return cfg, p.Prog
}

func TestKnobGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("knob golden table is heavy")
	}
	for k := knob(0); k < numKnobs; k++ {
		rows := 0
		for i := 0; i < knobGoldenSeeds; i++ {
			if knobsOn(i)[k] {
				rows++
			}
		}
		if rows < 3 {
			t.Fatalf("knob %s is on in only %d rows", knobNames[k], rows)
		}
	}
	for _, c := range knobGoldenCells() {
		c := c
		t.Run(c.key(), func(t *testing.T) {
			run, fp := runCell(t, c, nil)
			checkRow(t, c.key(), goldenRow{run: run, fingerprint: fp})
		})
	}
}

// TestKnobGoldenTableComplete keeps the golden table and the cell lists
// in step: every row names a cell and every cell has a row, so a renamed
// knob or a shrunk cell list cannot leave silently unchecked rows behind.
func TestKnobGoldenTableComplete(t *testing.T) {
	cells := map[string]bool{}
	add := func(key string) {
		if cells[key] {
			t.Errorf("two cells share the key %s", key)
		}
		cells[key] = true
	}
	for _, c := range goldenCells() {
		add(c.key())
	}
	for _, c := range policyGoldenCells() {
		add(c.key())
	}
	for _, c := range knobGoldenCells() {
		add(c.key())
	}
	for key := range golden {
		if !cells[key] {
			t.Errorf("golden row %s names no cell", key)
		}
	}
	for key := range cells {
		if _, ok := golden[key]; !ok {
			t.Errorf("no golden row for %s", key)
		}
	}
}
