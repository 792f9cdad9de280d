// Package obs is the observability layer of the simulator: a metrics
// registry with allocation-free counters and fixed-bucket histograms,
// trace sinks layered on stats.TraceEvent (a bounded sampling ring and a
// streaming JSONL writer), an optional HTTP endpoint for live
// introspection, and periodic progress reporting. The paper is about
// *memory performance feedback*; this package is the same idea applied to
// the simulator itself — ask a running simulation "what is the
// miss-latency distribution right now?" without writing ad-hoc code.
//
// The overhead contract (DESIGN.md §11) is strict in one direction: with
// observability disabled (a nil *Sim handle, a nil trace callback) the
// engines' per-instruction hot path must stay allocation-free and within
// noise of the BENCH_hotpath.txt ledger (`make bench`). With metrics and
// 1-in-N trace sampling the engines pay a handful of atomic adds per
// instruction — bounded (BenchmarkHotpathOOOCellObs in internal/core) and
// proven not to change a single measured statistic (TestObsNeverChangesStats).
//
// All counters and histogram cells are updated with atomic operations so
// the HTTP endpoint and the progress reporter can read a live simulation
// from another goroutine, and so parallel experiment sweeps
// (internal/sched) can share one registry across workers and report
// aggregate figures.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing (or gauge-style, via Store)
// metric cell. The zero value is ready to use; all methods are
// allocation-free and safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store overwrites the value (gauge use, e.g. the current cycle).
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution: observations are counted into
// the first bucket whose upper bound is >= the value, with an implicit
// +Inf overflow bucket. Bounds are fixed at construction so Observe is
// allocation-free; cells are atomic for concurrent readers.
type Histogram struct {
	bounds []int64 // ascending upper bounds; len(counts) == len(bounds)+1
	counts []atomic.Uint64
	sum    atomic.Int64
	n      atomic.Uint64
}

// NewHistogram builds a histogram with the given ascending bucket upper
// bounds. It panics on empty or non-ascending bounds — bucket layouts are
// static program data, not runtime input.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d", i))
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the average observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Bucket is one exported histogram cell; Le is math.MaxInt64 for the
// overflow bucket.
type Bucket struct {
	Le    int64  `json:"le"`
	Count uint64 `json:"count"`
}

// Buckets returns a snapshot of the cells in bound order.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.counts))
	for i := range h.counts {
		le := int64(math.MaxInt64)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		out[i] = Bucket{Le: le, Count: h.counts[i].Load()}
	}
	return out
}

// Registry is a named collection of counters and histograms. Lookups are
// mutex-guarded and intended for setup/export only; hot loops hold the
// returned *Counter / *Histogram handles directly (see Sim).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with bounds on first
// use. Re-registering an existing name returns the existing histogram
// (the bounds argument is ignored then).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// histExport is the JSON shape of one histogram.
type histExport struct {
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot returns a stable-ordered, JSON-marshalable view of every
// metric: counter names map to values, histogram names to their cells.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	counters := map[string]uint64{}
	for name, c := range r.counters {
		counters[name] = c.Load()
	}
	hists := map[string]histExport{}
	for name, h := range r.histograms {
		hists[name] = histExport{Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(), Buckets: h.Buckets()}
	}
	return map[string]any{"counters": counters, "histograms": hists}
}

// WriteJSON writes the registry snapshot as indented JSON with
// deterministically ordered keys (encoding/json sorts map keys).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// Names returns every registered metric name, sorted (counters and
// histograms together).
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
