// Package faults is a deterministic, seedable fault injector for the
// simulated memory hierarchy and probe path. It exists so the
// informing-operation schemes can be tested under perturbation — the
// paper's case study pits miss-handler schemes against Blizzard-E-style
// access control that deliberately relies on ECC faults, and warns that a
// miss inside a miss handler must degrade gracefully rather than recurse.
//
// The injector evaluates an ordered list of Rules against each reference.
// A rule selects its sites by PC, by address range, by every-Nth matching
// reference, or probabilistically (from a seeded generator — two
// injectors built from the same Plan make identical decisions), and
// perturbs the reference according to its Kind:
//
//   - ForceMiss / ForceHit flip the architecturally reported level
//     (outcome flips; the underlying tag state was already updated by the
//     real probe, which is exactly the "cache outcome is not a function
//     of the program" property §3.3 of the paper discusses);
//   - Jitter adds extra completion latency at the timing layer only and
//     must never change architectural semantics;
//   - Poison marks the referenced line poisoned (ECC-style); every later
//     reference to a poisoned line is forced to memory level until the
//     line is scrubbed;
//   - Reentrant forces misses only on references executed inside a miss
//     handler, bounded by MaxFires — the MHAR re-entrancy hazard;
//   - Protocol decides firing only (see Fire); the multi package's tests
//     use it to corrupt protocol state at injected points.
//
// The injector implements interp.FaultHook (architectural outcomes) and
// is consulted by the timing cores for latency jitter (Delay). A nil
// *Injector is valid and injects nothing.
package faults

import "fmt"

// Kind enumerates fault classes.
type Kind uint8

const (
	// ForceMiss reports the reference as resolving in main memory
	// regardless of the true outcome.
	ForceMiss Kind = iota
	// ForceHit reports the reference as a primary-cache hit regardless
	// of the true outcome (a spurious hit).
	ForceHit
	// Jitter adds deterministic pseudo-random latency to the reference's
	// completion time; timing only, never architectural.
	Jitter
	// Poison poisons the referenced line: this and every subsequent
	// reference to the line resolves at memory level until Scrub.
	Poison
	// Reentrant forces a miss only when the reference executes inside a
	// miss handler (the in-handler bit is set).
	Reentrant
	// Protocol is a generic firing decision with no built-in effect;
	// callers (the multi tests) query it with Fire and apply their own
	// corruption.
	Protocol

	numKinds
)

func (k Kind) String() string {
	switch k {
	case ForceMiss:
		return "force-miss"
	case ForceHit:
		return "force-hit"
	case Jitter:
		return "jitter"
	case Poison:
		return "poison"
	case Reentrant:
		return "reentrant"
	case Protocol:
		return "protocol"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Memory levels as reported to the probe path. These mirror the
// interp.LevelL1..LevelMem constants (plain ints; faults must not import
// the interpreter).
const (
	levelL1  = 1
	levelMem = 3
)

// Rule is one fault with its site selection. All zero-valued selectors
// match every reference; selectors compose conjunctively.
type Rule struct {
	Kind Kind

	// MatchPC restricts the rule to references issued from PC.
	PC      uint64
	MatchPC bool

	// AddrLo/AddrHi restrict the rule to effective addresses in the
	// half-open range [AddrLo, AddrHi); both zero means any address.
	AddrLo, AddrHi uint64

	// EveryN fires the rule on every Nth matching reference (0 or 1 =
	// every matching reference).
	EveryN uint64

	// MaxFires stops the rule after it has fired this many times (0 =
	// unlimited). This is how re-entrancy faults are bounded.
	MaxFires uint64

	// Prob, when in (0, 1), fires the rule independently with this
	// probability per matching reference, drawn from the plan's seeded
	// generator. Zero means deterministic (always fire when selected).
	Prob float64

	// MaxDelay is the jitter bound: Jitter rules add a uniform delay in
	// [1, MaxDelay] cycles (0 = a fixed 1-cycle delay).
	MaxDelay int64
}

// Plan is a reproducible fault schedule: a seed plus ordered rules.
type Plan struct {
	Seed  uint64
	Rules []Rule
}

// Stats counts what the injector actually did.
type Stats struct {
	ForcedMisses    uint64
	ForcedHits      uint64
	Jittered        uint64
	DelayCycles     int64  // total extra cycles injected by Jitter rules
	PoisonInjected  uint64 // lines newly poisoned by Poison rules
	PoisonFaults    uint64 // references forced to memory by poisoned lines
	ReentrantMisses uint64
	ProtocolFires   uint64
}

type ruleState struct {
	Rule
	matched uint64
	fired   uint64
}

// Injector applies a Plan. It is deterministic and single-threaded, like
// the simulators it perturbs. The zero of *Injector (nil) injects
// nothing and is safe to call.
type Injector struct {
	rules     []ruleState
	rng       uint64
	poisoned  map[uint64]struct{}
	lineBytes uint64
	stats     Stats
}

// New builds an injector for plan. lineBytes controls poisoning
// granularity through Option-free default 32 (the Table 1 line size);
// change it with SetLineBytes before use if the hierarchy differs.
func New(plan Plan) *Injector {
	inj := &Injector{
		rules:     make([]ruleState, len(plan.Rules)),
		rng:       plan.Seed + 0x9e3779b97f4a7c15, // avoid the all-zero state
		poisoned:  make(map[uint64]struct{}),
		lineBytes: 32,
	}
	for i, r := range plan.Rules {
		inj.rules[i] = ruleState{Rule: r}
	}
	return inj
}

// SetLineBytes sets the poisoning granularity (power of two).
func (i *Injector) SetLineBytes(n uint64) {
	if i != nil && n > 0 && n&(n-1) == 0 {
		i.lineBytes = n
	}
}

// next advances the injector's splitmix64 generator.
func (i *Injector) next() uint64 {
	i.rng += 0x9e3779b97f4a7c15
	z := i.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fires evaluates one rule's site selection against a reference and
// advances its counters when it matches.
func (i *Injector) fires(r *ruleState, pc, addr uint64) bool {
	if r.MatchPC && pc != r.PC {
		return false
	}
	if (r.AddrLo != 0 || r.AddrHi != 0) && (addr < r.AddrLo || addr >= r.AddrHi) {
		return false
	}
	if r.MaxFires > 0 && r.fired >= r.MaxFires {
		return false
	}
	r.matched++
	if r.EveryN > 1 && r.matched%r.EveryN != 0 {
		return false
	}
	if r.Prob > 0 && r.Prob < 1 {
		// 53-bit uniform in [0,1).
		if float64(i.next()>>11)/(1<<53) >= r.Prob {
			return false
		}
	}
	r.fired++
	return true
}

func (i *Injector) line(addr uint64) uint64 { return addr &^ (i.lineBytes - 1) }

// Outcome perturbs the architecturally resolved level of one data
// reference; it implements interp.FaultHook. The true probe has already
// run (tag state is updated); only the reported outcome is flipped, so
// timing-visible behaviour changes while the program's loaded values do
// not.
func (i *Injector) Outcome(pc, addr uint64, write, inHandler bool, level int) int {
	if i == nil {
		return level
	}
	if _, bad := i.poisoned[i.line(addr)]; bad {
		i.stats.PoisonFaults++
		return levelMem
	}
	out := level
	for k := range i.rules {
		r := &i.rules[k]
		switch r.Kind {
		case ForceMiss:
			if i.fires(r, pc, addr) {
				i.stats.ForcedMisses++
				out = levelMem
			}
		case ForceHit:
			if i.fires(r, pc, addr) {
				i.stats.ForcedHits++
				out = levelL1
			}
		case Poison:
			if i.fires(r, pc, addr) {
				i.poisoned[i.line(addr)] = struct{}{}
				i.stats.PoisonInjected++
				i.stats.PoisonFaults++
				out = levelMem
			}
		case Reentrant:
			if inHandler && i.fires(r, pc, addr) {
				i.stats.ReentrantMisses++
				out = levelMem
			}
		}
	}
	return out
}

// Delay returns the extra completion latency (in cycles) Jitter rules
// inject for one reference. Timing cores add it to the memory system's
// completion time; it must never feed back into architectural state.
func (i *Injector) Delay(pc, addr uint64) int64 {
	if i == nil {
		return 0
	}
	var d int64
	for k := range i.rules {
		r := &i.rules[k]
		if r.Kind != Jitter || !i.fires(r, pc, addr) {
			continue
		}
		extra := int64(1)
		if r.MaxDelay > 1 {
			extra = 1 + int64(i.next()%uint64(r.MaxDelay))
		}
		d += extra
		i.stats.Jittered++
		i.stats.DelayCycles += extra
	}
	return d
}

// Fire evaluates the site selection of rules of the given kind for one
// reference and reports whether any fired. It is how effects the
// injector cannot apply itself (protocol-state corruption in
// internal/multi) reuse the plan machinery.
func (i *Injector) Fire(kind Kind, pc, addr uint64) bool {
	if i == nil {
		return false
	}
	fired := false
	for k := range i.rules {
		r := &i.rules[k]
		if r.Kind == kind && i.fires(r, pc, addr) {
			fired = true
		}
	}
	if fired && kind == Protocol {
		i.stats.ProtocolFires++
	}
	return fired
}

// PoisonLine marks addr's line poisoned outside any rule (tests and the
// Blizzard-style scheme harnesses seed specific lines).
func (i *Injector) PoisonLine(addr uint64) {
	if i != nil {
		i.poisoned[i.line(addr)] = struct{}{}
	}
}

// Scrub clears addr's line's poison and reports whether it was poisoned.
func (i *Injector) Scrub(addr uint64) bool {
	if i == nil {
		return false
	}
	l := i.line(addr)
	_, ok := i.poisoned[l]
	delete(i.poisoned, l)
	return ok
}

// PoisonedLines returns the number of currently poisoned lines.
func (i *Injector) PoisonedLines() int {
	if i == nil {
		return 0
	}
	return len(i.poisoned)
}

// Stats returns the injection counters accumulated so far.
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return i.stats
}
