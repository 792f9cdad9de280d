// Package core is the public face of the informing-memory-operations
// library: it ties the paper's two machine models (internal/ooo,
// internal/inorder), the three informing schemes, and the measurement
// types together behind a single configuration/run API.
//
// Typical use:
//
//	cfg := core.R10000(core.TrapBranch)
//	run, err := cfg.Run(prog)
//
// Programs are built with internal/asm (either the Builder DSL or the
// text assembler); miss handlers are ordinary code in the program's text
// segment, entered through the MHAR/MHRR registers (trap schemes) or BMISS
// branches (condition-code scheme).
package core

import (
	"context"
	"fmt"

	"informing/internal/faults"
	"informing/internal/inorder"
	"informing/internal/interp"
	"informing/internal/isa"
	"informing/internal/mem"
	"informing/internal/obs"
	"informing/internal/ooo"
	"informing/internal/stats"
)

// Machine selects the processor model.
type Machine uint8

const (
	// OutOfOrder is the MIPS-R10000-like model (Table 1, left column).
	OutOfOrder Machine = iota
	// InOrder is the Alpha-21164-like model (Table 1, right column).
	InOrder
)

func (m Machine) String() string {
	if m == InOrder {
		return "in-order"
	}
	return "out-of-order"
}

// Scheme selects the informing mechanism (§2 of the paper).
type Scheme uint8

const (
	// Off runs the program with informing behaviour disabled.
	Off Scheme = iota
	// CondCode is the cache-outcome condition-code scheme (§2.1).
	CondCode
	// TrapBranch is the low-overhead miss trap handled like a
	// mispredicted branch (§2.2, §3.2).
	TrapBranch
	// TrapException is the low-overhead miss trap handled like an
	// exception at graduation (§3.2); on the in-order machine it is
	// identical to TrapBranch (the replay-trap implementation).
	TrapException
)

func (s Scheme) String() string {
	switch s {
	case Off:
		return "off"
	case CondCode:
		return "condcode"
	case TrapBranch:
		return "trap-branch"
	case TrapException:
		return "trap-exception"
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// Mode returns the architectural informing mode implied by the scheme.
func (s Scheme) Mode() interp.Mode {
	switch s {
	case CondCode:
		return interp.ModeCondCode
	case TrapBranch, TrapException:
		return interp.ModeTrap
	default:
		return interp.ModeOff
	}
}

// Config is a complete machine configuration. Construct one with R10000
// or Alpha21164 and adjust fields as needed before Run.
type Config struct {
	Machine Machine
	Scheme  Scheme

	// OOO and IO hold the model-specific parameters; only the one
	// matching Machine is used.
	OOO ooo.Config
	IO  inorder.Config
}

// R10000 returns the paper's out-of-order machine running the given
// informing scheme.
func R10000(s Scheme) Config {
	cfg := Config{Machine: OutOfOrder, Scheme: s, OOO: ooo.DefaultConfig(), IO: inorder.DefaultConfig()}
	cfg.apply()
	return cfg
}

// Alpha21164 returns the paper's in-order machine running the given
// informing scheme.
func Alpha21164(s Scheme) Config {
	cfg := Config{Machine: InOrder, Scheme: s, OOO: ooo.DefaultConfig(), IO: inorder.DefaultConfig()}
	cfg.apply()
	return cfg
}

// apply propagates Scheme into the model configs.
func (c *Config) apply() {
	mode := c.Scheme.Mode()
	c.OOO.Mode = mode
	c.IO.Mode = mode
	if c.Scheme == TrapException {
		c.OOO.Trap = ooo.TrapAsException
	} else {
		c.OOO.Trap = ooo.TrapAsBranch
	}
}

// WithMaxInsts bounds the dynamic instruction count of Run: it sets the
// governor's budget (Govern.MaxInsts) on whichever machine runs.
func (c Config) WithMaxInsts(n uint64) Config {
	c.OOO.Govern.MaxInsts = n
	c.IO.Govern.MaxInsts = n
	return c
}

// WithTrace attaches a per-instruction pipeline trace callback (invoked in
// graduation order) to whichever machine runs.
func (c Config) WithTrace(fn func(stats.TraceEvent)) Config {
	c.OOO.Trace = fn
	c.IO.Trace = fn
	return c
}

// WithContext makes Run respond to ctx cancellation or deadline expiry:
// the simulation stops at the next governor poll and returns an error
// wrapping govern.ErrCanceled that carries a diagnostic govern.Snapshot.
func (c Config) WithContext(ctx context.Context) Config {
	c.OOO.Govern.Ctx = ctx
	c.IO.Govern.Ctx = ctx
	return c
}

// WithFaults attaches a fault-injection plan to whichever machine runs.
func (c Config) WithFaults(inj *faults.Injector) Config {
	c.OOO.Faults = inj
	c.IO.Faults = inj
	return c
}

// WithObs attaches a live-metrics sink (counters and histograms; see
// internal/obs) to whichever machine runs. A nil sim is valid and leaves
// the hot path allocation-free (DESIGN.md §11).
func (c Config) WithObs(sim *obs.Sim) Config {
	c.OOO.Obs = sim
	c.IO.Obs = sim
	return c
}

// WithTraceEvery samples the pipeline trace at the source: only every n-th
// instruction (in graduation/retirement order) constructs and emits a
// TraceEvent. 0 or 1 traces every instruction.
func (c Config) WithTraceEvery(n uint64) Config {
	c.OOO.TraceEvery = n
	c.IO.TraceEvery = n
	return c
}

// WithPolicy selects the data-hierarchy replacement policy (both levels,
// both machines): "" or "lru" for the built-in true-LRU path, or one of
// mem.PolicyNames. Invalid names surface as a construction error from
// Run (the library panic-to-error policy).
func (c Config) WithPolicy(name string) Config {
	if name == mem.PolicyLRU {
		name = "" // canonical spelling of the default path
	}
	c.OOO.Hier.L1.Policy = name
	c.OOO.Hier.L2.Policy = name
	c.IO.Hier.L1.Policy = name
	c.IO.Hier.L2.Policy = name
	return c
}

// HierConfig returns the data-hierarchy geometry of whichever machine
// runs: the geometry a recorded trace from this configuration must be
// replayed through (internal/trace) for exact reconciliation.
func (c Config) HierConfig() mem.HierConfig {
	if c.Machine == InOrder {
		return c.IO.Hier
	}
	return c.OOO.Hier
}

// Run simulates prog to completion under the configuration.
func (c Config) Run(prog *isa.Program) (stats.Run, error) {
	r, _, err := c.RunDetailed(prog)
	return r, err
}

// RunDetailed is Run but also returns the functional machine with the
// final architectural state (registers, data memory, MHAR/MHRR).
func (c Config) RunDetailed(prog *isa.Program) (stats.Run, *interp.Machine, error) {
	if err := prog.Validate(); err != nil {
		return stats.Run{}, nil, err
	}
	c.apply()
	switch c.Machine {
	case InOrder:
		return inorder.RunDetailed(prog, c.IO)
	default:
		return ooo.RunDetailed(prog, c.OOO)
	}
}

// RunFunctional executes prog on the functional reference model (perfect
// cache) and returns the final machine state; useful for validating
// program behaviour independent of timing.
func RunFunctional(prog *isa.Program, limit uint64) (*interp.Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	m := interp.New(prog, interp.ModeOff, nil)
	if err := m.Run(limit); err != nil {
		return m, err
	}
	return m, nil
}
