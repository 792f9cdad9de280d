package serve

import (
	"errors"
	"fmt"

	"informing/internal/coherence"
	"informing/internal/core"
	"informing/internal/experiments"
	"informing/internal/govern"
	"informing/internal/mem"
	"informing/internal/multi"
	"informing/internal/stats"
	"informing/internal/trace"
	"informing/internal/workload"
)

// Request kinds. A cell is one (benchmark, machine, plan) point of the
// §4.2 handler-overhead studies; a fig4 point is one (application, scheme)
// point of the §4.3 coherence case study; a program is an arbitrary
// assembler source run on one machine/scheme (informsim as a service); a
// trace is a recorded schema-v2 JSONL trace replayed through a machine's
// cache hierarchy with no ISA program (internal/trace, DESIGN.md §16).
const (
	KindCell    = "cell"
	KindFig4    = "fig4"
	KindProgram = "program"
	KindTrace   = "trace"
)

// Wire machine names (canonical forms first).
const (
	MachineOOO     = "ooo"
	MachineInOrder = "inorder"
)

// Limits on what a single request may ask for; validation rejects
// anything larger with a per-cell "invalid" error rather than letting a
// client queue unbounded work.
const (
	// MaxScale bounds the workload iteration multiplier.
	MaxScale = 10_000
	// MaxSourceBytes bounds a program request's assembler source.
	MaxSourceBytes = 1 << 20
	// MaxTraceBytes bounds a trace request's JSONL text. Full
	// (-trace-sample 1) traces of the paper-shaped workloads run tens of
	// megabytes — tomcatv under CondCode is ~60 MB — so the bound is far
	// above MaxSourceBytes, and maxBodyBytes accommodates one such trace.
	MaxTraceBytes = 48 << 20
)

// Request is one simulation request on the wire. Kind selects which field
// group applies; Canonicalize validates the request and fills defaults so
// that semantically identical requests become structurally identical (and
// therefore share one cache fingerprint).
type Request struct {
	Kind string `json:"kind"`

	// Cell fields (KindCell). Policy selects the data-hierarchy
	// replacement policy ("lru" when empty; see mem.PolicyNames) and is a
	// fingerprint dimension: the same cell under two policies is two
	// cache entries.
	Benchmark string `json:"benchmark,omitempty"`
	Plan      string `json:"plan,omitempty"`
	Policy    string `json:"policy,omitempty"`

	// Shared by cell and program kinds: which timing core, and the
	// dynamic-instruction budget (0 = the server default).
	Machine  string `json:"machine,omitempty"`
	Scale    int64  `json:"scale,omitempty"`
	MaxInsts uint64 `json:"maxinsts,omitempty"`

	// Fig4 fields (KindFig4). Scheme doubles as the informing scheme of a
	// program request ("off", "condcode", "trap-branch", "trap-exception").
	App        string `json:"app,omitempty"`
	Scheme     string `json:"scheme,omitempty"`
	Processors int    `json:"processors,omitempty"`
	MaxRefs    uint64 `json:"maxrefs,omitempty"`

	// Program fields (KindProgram): assembler source text (internal/asm
	// syntax).
	Source string `json:"source,omitempty"`

	// Trace fields (KindTrace): schema-v2 JSONL trace text, replayed
	// through the Machine's cache geometry. MaxRefs doubles as the replay
	// reference budget; AllowSampled admits traces with seq gaps
	// (reconciliation is then impossible, but miss-rate estimates still
	// come back).
	Trace        string `json:"trace,omitempty"`
	AllowSampled bool   `json:"allowsampled,omitempty"`
}

// Defaults the canonicalizer applies; exported so clients and tests can
// predict canonical forms.
const (
	// DefaultMaxInsts matches experiments.DefaultOptions: served cells are
	// budgeted exactly like the CLI harness cells.
	DefaultMaxInsts uint64 = 100_000_000
	// DefaultProcessors matches multi.DefaultConfig (Table 2).
	DefaultProcessors = 16
)

func machineByName(name string) (core.Machine, string, error) {
	switch name {
	case MachineOOO, "out-of-order", "":
		return core.OutOfOrder, MachineOOO, nil
	case MachineInOrder, "in-order":
		return core.InOrder, MachineInOrder, nil
	}
	return 0, "", fmt.Errorf("unknown machine %q (want %q or %q)", name, MachineOOO, MachineInOrder)
}

func schemeByName(name string) (core.Scheme, error) {
	for _, s := range []core.Scheme{core.Off, core.CondCode, core.TrapBranch, core.TrapException} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown informing scheme %q", name)
}

// Canonicalize validates req against the server limits and returns the
// canonical form: defaults filled, aliases resolved ("out-of-order" →
// "ooo", "S1/branch" → "S1"), irrelevant fields zeroed. Two requests that
// mean the same simulation canonicalize to identical structs — the
// property the cache fingerprint is computed over.
func Canonicalize(req Request, maxInstsCap uint64) (Request, error) {
	if maxInstsCap == 0 {
		maxInstsCap = govern.DefaultBudget
	}
	c := Request{Kind: req.Kind}
	switch req.Kind {
	case KindCell:
		bm, ok := workload.ByName(req.Benchmark)
		if !ok {
			return Request{}, fmt.Errorf("unknown benchmark %q", req.Benchmark)
		}
		spec, err := experiments.PlanByLabel(req.Plan)
		if err != nil {
			return Request{}, err
		}
		_, machine, err := machineByName(req.Machine)
		if err != nil {
			return Request{}, err
		}
		c.Benchmark, c.Plan, c.Machine = bm.Name, spec.Label, machine
		c.Policy = req.Policy
		if c.Policy == "" {
			c.Policy = mem.PolicyLRU
		}
		if err := mem.ValidPolicy(c.Policy); err != nil {
			return Request{}, err
		}
		c.Scale = req.Scale
		if c.Scale == 0 {
			c.Scale = 1
		}
		if c.Scale < 1 || c.Scale > MaxScale {
			return Request{}, fmt.Errorf("scale %d outside [1,%d]", c.Scale, MaxScale)
		}
		c.MaxInsts = req.MaxInsts
		if c.MaxInsts == 0 {
			c.MaxInsts = DefaultMaxInsts
		}
		if c.MaxInsts > maxInstsCap {
			return Request{}, fmt.Errorf("maxinsts %d above server cap %d", c.MaxInsts, maxInstsCap)
		}
		return c, nil

	case KindFig4:
		if req.App == "" {
			return Request{}, fmt.Errorf("fig4 request needs an app")
		}
		c.Processors = req.Processors
		if c.Processors == 0 {
			c.Processors = DefaultProcessors
		}
		if c.Processors < 1 || c.Processors > 64 {
			return Request{}, fmt.Errorf("processor count %d outside [1,64]", c.Processors)
		}
		if _, err := coherence.AppByName(req.App, 1); err != nil {
			return Request{}, err
		}
		if _, err := coherence.SchemeByName(req.Scheme); err != nil {
			return Request{}, err
		}
		c.App, c.Scheme = req.App, req.Scheme
		c.MaxRefs = req.MaxRefs
		if c.MaxRefs > maxInstsCap {
			return Request{}, fmt.Errorf("maxrefs %d above server cap %d", c.MaxRefs, maxInstsCap)
		}
		return c, nil

	case KindProgram:
		if req.Source == "" {
			return Request{}, fmt.Errorf("program request needs source")
		}
		if len(req.Source) > MaxSourceBytes {
			return Request{}, fmt.Errorf("source %d bytes above limit %d", len(req.Source), MaxSourceBytes)
		}
		_, machine, err := machineByName(req.Machine)
		if err != nil {
			return Request{}, err
		}
		scheme := req.Scheme
		if scheme == "" {
			scheme = core.Off.String()
		}
		if _, err := schemeByName(scheme); err != nil {
			return Request{}, err
		}
		c.Machine, c.Scheme, c.Source = machine, scheme, req.Source
		c.MaxInsts = req.MaxInsts
		if c.MaxInsts == 0 {
			c.MaxInsts = DefaultMaxInsts
		}
		if c.MaxInsts > maxInstsCap {
			return Request{}, fmt.Errorf("maxinsts %d above server cap %d", c.MaxInsts, maxInstsCap)
		}
		return c, nil

	case KindTrace:
		if req.Trace == "" {
			return Request{}, fmt.Errorf("trace request needs trace text")
		}
		if len(req.Trace) > MaxTraceBytes {
			return Request{}, fmt.Errorf("trace %d bytes above limit %d", len(req.Trace), MaxTraceBytes)
		}
		_, machine, err := machineByName(req.Machine)
		if err != nil {
			return Request{}, err
		}
		c.Machine, c.Trace, c.AllowSampled = machine, req.Trace, req.AllowSampled
		c.MaxRefs = req.MaxRefs
		if c.MaxRefs > maxInstsCap {
			return Request{}, fmt.Errorf("maxrefs %d above server cap %d", c.MaxRefs, maxInstsCap)
		}
		return c, nil
	}
	return Request{}, fmt.Errorf("unknown request kind %q (want %q, %q, %q or %q)",
		req.Kind, KindCell, KindFig4, KindProgram, KindTrace)
}

// Error codes a cell result may carry; clients switch on these rather
// than parsing messages.
const (
	CodeInvalid      = "invalid"      // request failed validation
	CodeBudget       = "budget"       // govern instruction/reference budget exhausted
	CodeCanceled     = "canceled"     // request context cancelled or server shutdown
	CodeLivelock     = "livelock"     // govern watchdog abort
	CodeOverload     = "overload"     // queue full (whole-request 429)
	CodeRateLimited  = "rate-limited" // tenant above its admission rate (429)
	CodeUnauthorized = "unauthorized" // unknown API key, or anonymous tier disabled (401)
	CodeInternal     = "internal"     // anything else
)

// WireError is the JSON error body attached to a failed cell (and, for
// whole-request failures, the top-level response body).
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Snapshot carries the govern diagnostic snapshot of an aborted
	// simulation, when one exists.
	Snapshot string `json:"snapshot,omitempty"`
}

func (e *WireError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// wireErr classifies err into a WireError.
func wireErr(err error) *WireError {
	if err == nil {
		return nil
	}
	if we, ok := err.(*WireError); ok {
		return we
	}
	we := &WireError{Code: CodeInternal, Message: err.Error()}
	switch {
	case errors.Is(err, govern.ErrBudget):
		we.Code = CodeBudget
	case errors.Is(err, govern.ErrCanceled):
		we.Code = CodeCanceled
	case errors.Is(err, govern.ErrLivelock):
		we.Code = CodeLivelock
	}
	if snap, ok := govern.SnapshotIn(err); ok {
		we.Snapshot = snap.String()
	}
	return we
}

// CellResult is the per-cell response: exactly one of Run (cell/program
// kinds), Multi (fig4 kind), Replay (trace kind) or Error is set. Key is
// the cache fingerprint of the canonical request; Cached reports whether
// the result was served from the LRU without touching the simulator.
//
// The field order is wire format: /v1/simulate splices a result's stored
// encoding after key and cached (writeSimulate).
type CellResult struct {
	Key    string              `json:"key"`
	Cached bool                `json:"cached"`
	Run    *stats.Run          `json:"run,omitempty"`
	Multi  *multi.Result       `json:"multi,omitempty"`
	Replay *trace.ReplayResult `json:"replay,omitempty"`
	Error  *WireError          `json:"error,omitempty"`

	enc  []byte                  // the served outcome's encoding; nil on error cells
	lazy func() (outcome, error) // outcome.lazy: decodes a forwarded result
}

// SimulateRequest is the body of POST /v1/simulate: a batch of cells
// evaluated concurrently on the server's worker pool.
type SimulateRequest struct {
	Cells []Request `json:"cells"`
}

// SimulateResponse mirrors SimulateRequest: Results[i] answers Cells[i].
type SimulateResponse struct {
	Results []CellResult `json:"results"`
}

// ExperimentRequest is the body of POST /v1/experiment: either a named
// §4.2 experiment (Name, see experiments.Named) or a custom grid of
// benchmarks × plans over both machines. The response's Table is
// byte-identical to what cmd/handlerbench prints for the same cells.
type ExperimentRequest struct {
	Name string `json:"name,omitempty"`

	// Custom grid (used when Name is empty).
	Benchmarks []string `json:"benchmarks,omitempty"`
	Plans      []string `json:"plans,omitempty"`
	Title      string   `json:"title,omitempty"`
	Baseline   string   `json:"baseline,omitempty"`

	Scale    int64  `json:"scale,omitempty"`
	MaxInsts uint64 `json:"maxinsts,omitempty"`
}

// ExperimentResponse carries the rendered tables plus cache accounting
// for the cells this request touched.
type ExperimentResponse struct {
	Name    string `json:"name,omitempty"`
	Table   string `json:"table"`
	Summary string `json:"summary,omitempty"`

	Cells     int `json:"cells"`
	CacheHits int `json:"cache_hits"`
	Computed  int `json:"computed"`
}
