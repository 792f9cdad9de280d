package mem

import "fmt"

// TimingConfig holds the latency/bandwidth parameters of Table 1.
type TimingConfig struct {
	L1HitLat    int // load-use latency on a primary hit
	L2Lat       int // primary-to-secondary miss latency
	MemLat      int // primary-to-memory miss latency
	MSHRs       int // lockup-free miss status handling registers
	Banks       int // data cache banks
	FillTime    int // cycles a fill occupies its bank
	MemInterval int // main memory accepts one access per MemInterval cycles
	LineBytes   int
}

// Validate checks the configuration.
func (c TimingConfig) Validate() error {
	if c.MSHRs <= 0 || c.Banks <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("mem: timing config has non-positive resource counts: %+v", c)
	}
	return nil
}

// Timing models the time-domain behaviour of the data memory system:
// outstanding misses are tracked in MSHRs (merging requests to an
// in-flight line), main memory admits one access per MemInterval cycles,
// and fills occupy a cache bank for FillTime cycles.
//
// The architectural hit/miss outcome is decided elsewhere (Hierarchy);
// callers pass the level here to obtain a completion time.
type Timing struct {
	cfg       TimingConfig
	lineShift uint

	entries     []mshrEntry
	memNextFree int64
	bankFree    []int64

	// ExtendLifetime keeps an MSHR allocated until the owning memory
	// operation graduates or is squashed (Release/Squash), implementing
	// §3.3. When false, entries expire as soon as their fill completes.
	ExtendLifetime bool

	// Statistics.
	MSHRFullStalls uint64
	Merges         uint64
	FillsStarted   uint64
	PeakInUse      int
}

type mshrEntry struct {
	line     uint64
	fillDone int64
	inUse    bool
	held     bool // lifetime extended past fillDone (ExtendLifetime mode)
}

// NewTiming builds the timing model, rejecting invalid configurations
// with an error (the library panic-to-error policy; see DESIGN.md
// "Robustness model").
func NewTiming(cfg TimingConfig) (*Timing, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &Timing{
		cfg:       cfg,
		lineShift: shift,
		entries:   make([]mshrEntry, cfg.MSHRs),
		bankFree:  make([]int64, cfg.Banks),
	}, nil
}

// MustTiming is NewTiming that panics on error; for tests and static
// literal configurations only (documented Must* helper).
func MustTiming(cfg TimingConfig) *Timing {
	t, err := NewTiming(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Timing) line(addr uint64) uint64 { return addr >> t.lineShift }

// expire frees entries whose fills have completed (unless held).
func (t *Timing) expire(now int64) {
	for i := range t.entries {
		e := &t.entries[i]
		if e.inUse && !e.held && e.fillDone <= now {
			e.inUse = false
		}
	}
}

// Request asks for a completion time for an access issued at cycle now
// that architecturally resolved at the given level (1..3). For misses it
// allocates or merges into an MSHR; ok is false when all MSHRs are busy,
// in which case the caller must retry on a later cycle (the reference
// could not be accepted by the lockup-free cache).
//
// The returned time is the cycle at which the loaded data is available to
// dependent instructions (critical word forwarded from the MSHR).
func (t *Timing) Request(now int64, level int, addr uint64) (done int64, ok bool) {
	t.expire(now)
	line := t.line(addr)
	if level <= 1 {
		// Architectural tag state says hit, but if the line's fill is
		// still in flight (e.g. started by a prefetch) the data is only
		// available when the MSHR delivers it.
		for i := range t.entries {
			e := &t.entries[i]
			if e.inUse && e.line == line && e.fillDone > now {
				t.Merges++
				return e.fillDone, true
			}
		}
		return now + int64(t.cfg.L1HitLat), true
	}
	// Merge with an in-flight miss to the same line.
	for i := range t.entries {
		e := &t.entries[i]
		if e.inUse && e.line == line && e.fillDone > now {
			t.Merges++
			return e.fillDone, true
		}
	}
	slot := -1
	for i := range t.entries {
		if !t.entries[i].inUse {
			slot = i
			break
		}
	}
	if slot < 0 {
		t.MSHRFullStalls++
		return 0, false
	}
	var arrive int64
	switch level {
	case 2:
		arrive = now + int64(t.cfg.L2Lat)
	default:
		start := now
		if t.memNextFree > start {
			start = t.memNextFree
		}
		t.memNextFree = start + int64(t.cfg.MemInterval)
		arrive = start + int64(t.cfg.MemLat)
	}
	// The fill occupies a bank for FillTime cycles; delay data delivery
	// if the bank is still busy with a previous fill.
	bank := int(line) % t.cfg.Banks
	if t.bankFree[bank] > arrive {
		arrive = t.bankFree[bank]
	}
	t.bankFree[bank] = arrive + int64(t.cfg.FillTime)
	t.FillsStarted++

	t.entries[slot] = mshrEntry{line: line, fillDone: arrive, inUse: true, held: t.ExtendLifetime}
	if n := t.inUseCount(); n > t.PeakInUse {
		t.PeakInUse = n
	}
	return arrive, true
}

func (t *Timing) inUseCount() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].inUse {
			n++
		}
	}
	return n
}

// InUse returns the number of allocated MSHRs (after expiring completed
// fills as of now).
func (t *Timing) InUse(now int64) int {
	t.expire(now)
	return t.inUseCount()
}

// Release frees the MSHR holding line because the owning memory operation
// graduated (ExtendLifetime mode). It is a no-op when no held entry
// matches.
func (t *Timing) Release(addr uint64) {
	line := t.line(addr)
	for i := range t.entries {
		e := &t.entries[i]
		if e.inUse && e.held && e.line == line {
			e.held = false
			return
		}
	}
}

// Squash frees the MSHR holding line because the owning memory operation
// was squashed; it reports whether an entry was found so the caller can
// invalidate the speculatively filled primary-cache line (§3.3).
func (t *Timing) Squash(addr uint64) bool {
	line := t.line(addr)
	for i := range t.entries {
		e := &t.entries[i]
		if e.inUse && e.held && e.line == line {
			e.held = false
			e.inUse = false
			return true
		}
	}
	return false
}
