package faults

// Filesystem fault injection. PR 1 built the seeded cache-fault injector
// so the *simulators* could be tested under perturbation; this file lifts
// the same philosophy one layer up, to the durable result store behind
// informd (internal/store). A FaultyFS wraps the real filesystem and,
// driven by a seeded FSPlan, injects the failure modes a production disk
// actually exhibits: ENOSPC, torn (short-but-"successful") writes, bit
// flips that only a checksum can catch, slow I/O, and generic I/O errors.
// Two FaultyFS built from the same plan and presented with the same
// operation sequence make identical decisions, so chaos tests are
// reproducible from a seed.

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ErrInjected is wrapped by every error a FaultyFS fabricates, so tests
// (and the store's degradation logic) can tell an injected fault from a
// real filesystem failure with errors.Is.
var ErrInjected = errors.New("faults: injected I/O error")

// FSOp selects which filesystem operations a rule applies to (bitmask).
type FSOp uint8

const (
	FSRead FSOp = 1 << iota
	FSWrite
	FSRename
	FSRemove

	FSAll = FSRead | FSWrite | FSRename | FSRemove
)

// FSKind enumerates filesystem fault classes.
type FSKind uint8

const (
	// FSNoSpace makes writes and renames fail with an error wrapping
	// syscall.ENOSPC. Writes leave a partial prefix behind, like a real
	// full disk.
	FSNoSpace FSKind = iota
	// FSTorn truncates a write to a prefix but reports success — the
	// crash-between-write-and-sync failure a checksum must catch.
	FSTorn
	// FSFlip flips one deterministic bit in the data written or read —
	// silent media corruption, again checksum territory.
	FSFlip
	// FSSlow injects latency (Delay per firing) without changing the
	// operation's result.
	FSSlow
	// FSError fails the operation with a generic injected I/O error.
	FSError
)

func (k FSKind) String() string {
	switch k {
	case FSNoSpace:
		return "enospc"
	case FSTorn:
		return "torn-write"
	case FSFlip:
		return "bit-flip"
	case FSSlow:
		return "slow-io"
	case FSError:
		return "io-error"
	}
	return fmt.Sprintf("fskind(%d)", uint8(k))
}

// defaultOps returns the operations a kind perturbs when the rule does
// not name any explicitly.
func (k FSKind) defaultOps() FSOp {
	switch k {
	case FSNoSpace:
		return FSWrite | FSRename
	case FSTorn:
		return FSWrite
	case FSFlip:
		return FSRead | FSWrite
	case FSSlow, FSError:
		return FSAll
	}
	return FSAll
}

// FSRule is one filesystem fault with its site selection; selectors
// compose conjunctively, zero values match everything (mirroring Rule).
type FSRule struct {
	Kind FSKind

	// Ops restricts the rule to these operations (0 = the kind's default:
	// ENOSPC → write+rename, torn → write, flip → read+write, slow/error
	// → all).
	Ops FSOp

	// PathContains restricts the rule to paths containing the substring
	// ("" = any path).
	PathContains string

	// EveryN fires on every Nth matching operation (0 or 1 = every one).
	EveryN uint64

	// MaxFires stops the rule after this many firings (0 = unlimited).
	MaxFires uint64

	// SkipFirst exempts the first N matching operations — "the disk fills
	// up after K successful writes" is SkipFirst: K.
	SkipFirst uint64

	// Prob, when in (0, 1), fires the rule with this probability per
	// matching operation, drawn from the plan's seeded generator.
	Prob float64

	// Delay is the latency an FSSlow firing injects (0 = 1ms).
	Delay time.Duration
}

// FSPlan is a reproducible filesystem fault schedule.
type FSPlan struct {
	Seed  uint64
	Rules []FSRule
}

// FSStats counts what the injector actually did.
type FSStats struct {
	Ops     uint64 // operations observed
	NoSpace uint64
	Torn    uint64
	Flipped uint64
	Slowed  uint64
	Errored uint64
}

type fsRuleState struct {
	FSRule
	matched uint64
	fired   uint64
}

// FaultyFS applies an FSPlan to real filesystem operations. It implements
// the internal/store filesystem interface structurally. Unlike Injector
// it is mutex-guarded: the store is called from many worker goroutines.
type FaultyFS struct {
	mu    sync.Mutex
	rules []fsRuleState
	rng   uint64
	stats FSStats

	// sleep is a test seam (FSSlow under test must not slow the tests).
	sleep func(time.Duration)
}

// NewFS builds a filesystem fault injector for plan, delegating real I/O
// to the os package.
func NewFS(plan FSPlan) *FaultyFS {
	f := &FaultyFS{
		rules: make([]fsRuleState, len(plan.Rules)),
		rng:   plan.Seed + 0x9e3779b97f4a7c15,
		sleep: time.Sleep,
	}
	for i, r := range plan.Rules {
		f.rules[i] = fsRuleState{FSRule: r}
	}
	return f
}

// SetSleep replaces the FSSlow sleeper (tests).
func (f *FaultyFS) SetSleep(fn func(time.Duration)) { f.sleep = fn }

// Stats returns the injection counters accumulated so far.
func (f *FaultyFS) Stats() FSStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func (f *FaultyFS) next() uint64 {
	f.rng += 0x9e3779b97f4a7c15
	z := f.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// decision is what the matching pass resolved for one operation: the
// first destructive rule that fired (if any) plus accumulated delay.
type decision struct {
	kind  FSKind
	fired bool
	delay time.Duration
	bit   uint64 // FSFlip: pre-drawn bit index entropy
}

func (f *FaultyFS) decide(op FSOp, path string) decision {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Ops++
	var d decision
	for i := range f.rules {
		r := &f.rules[i]
		ops := r.Ops
		if ops == 0 {
			ops = r.Kind.defaultOps()
		}
		if ops&op == 0 {
			continue
		}
		if r.PathContains != "" && !strings.Contains(path, r.PathContains) {
			continue
		}
		if r.MaxFires > 0 && r.fired >= r.MaxFires {
			continue
		}
		r.matched++
		if r.matched <= r.SkipFirst {
			continue
		}
		if r.EveryN > 1 && (r.matched-r.SkipFirst)%r.EveryN != 0 {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 {
			if float64(f.next()>>11)/(1<<53) >= r.Prob {
				continue
			}
		}
		r.fired++
		if r.Kind == FSSlow {
			delay := r.Delay
			if delay == 0 {
				delay = time.Millisecond
			}
			d.delay += delay
			f.stats.Slowed++
			continue
		}
		if !d.fired {
			d.kind, d.fired = r.Kind, true
			d.bit = f.next()
			switch r.Kind {
			case FSNoSpace:
				f.stats.NoSpace++
			case FSTorn:
				f.stats.Torn++
			case FSFlip:
				f.stats.Flipped++
			case FSError:
				f.stats.Errored++
			}
		}
	}
	return d
}

func (f *FaultyFS) applyDelay(d decision) {
	if d.delay > 0 {
		f.sleep(d.delay)
	}
}

// flipBit flips one deterministically chosen bit in a copy of data.
func flipBit(data []byte, entropy uint64) []byte {
	if len(data) == 0 {
		return data
	}
	out := make([]byte, len(data))
	copy(out, data)
	bit := entropy % uint64(len(out)*8)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// ---- filesystem interface (implements internal/store FS structurally) ----

func (f *FaultyFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}

func (f *FaultyFS) ReadDir(name string) ([]os.DirEntry, error) {
	return os.ReadDir(name)
}

func (f *FaultyFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

func (f *FaultyFS) ReadFile(name string) ([]byte, error) {
	d := f.decide(FSRead, name)
	f.applyDelay(d)
	if d.fired {
		switch d.kind {
		case FSError, FSNoSpace:
			return nil, fmt.Errorf("%w: read %s", ErrInjected, name)
		}
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if d.fired {
		switch d.kind {
		case FSTorn:
			return data[:len(data)/2], nil
		case FSFlip:
			return flipBit(data, d.bit), nil
		}
	}
	return data, nil
}

func (f *FaultyFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	d := f.decide(FSWrite, name)
	f.applyDelay(d)
	if !d.fired {
		return os.WriteFile(name, data, perm)
	}
	switch d.kind {
	case FSNoSpace:
		// A real full disk persists a prefix and then errors.
		_ = os.WriteFile(name, data[:len(data)/2], perm)
		return fmt.Errorf("%w: write %s: %w", ErrInjected, name, syscall.ENOSPC)
	case FSTorn:
		// The torn write "succeeds": only the checksum can tell.
		return os.WriteFile(name, data[:len(data)/2], perm)
	case FSFlip:
		return os.WriteFile(name, flipBit(data, d.bit), perm)
	case FSError:
		return fmt.Errorf("%w: write %s", ErrInjected, name)
	}
	return os.WriteFile(name, data, perm)
}

func (f *FaultyFS) Rename(oldpath, newpath string) error {
	d := f.decide(FSRename, newpath)
	f.applyDelay(d)
	if d.fired {
		switch d.kind {
		case FSNoSpace:
			return fmt.Errorf("%w: rename %s: %w", ErrInjected, newpath, syscall.ENOSPC)
		case FSError, FSTorn, FSFlip:
			return fmt.Errorf("%w: rename %s", ErrInjected, newpath)
		}
	}
	return os.Rename(oldpath, newpath)
}

func (f *FaultyFS) Remove(name string) error {
	d := f.decide(FSRemove, name)
	f.applyDelay(d)
	if d.fired {
		switch d.kind {
		case FSError, FSNoSpace:
			return fmt.Errorf("%w: remove %s", ErrInjected, name)
		}
	}
	return os.Remove(name)
}
