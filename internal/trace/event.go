// Package trace is the trace-driven simulation front end (DESIGN.md §16):
// it reads the JSONL pipeline-trace schema the obs layer emits (and
// cmd/tracecheck validates) and replays the memory references through the
// architectural hierarchy model as a first-class workload — no ISA
// program required. The closed loop is the contract: a trace recorded
// from a run with -trace-out, replayed through an identically configured
// hierarchy, reproduces that run's per-level reference and miss counters
// exactly.
//
// The package has three layers:
//
//   - ParseLine/Validate: a strict, allocation-free line parser for the
//     JSONL schema (v1 and v2), shared with cmd/tracecheck;
//   - Load/Replay's block-parallel reader: it cuts the input into ~1 MiB
//     blocks at newlines, parses them on GOMAXPROCS workers and consumes
//     them in order, with bounded memory, seq-reset segmentation for
//     concatenated sweep traces, and sampled-trace refusal (seq gaps)
//     unless explicitly allowed;
//   - Replay/ReplayData: drive mem.Hierarchy (per-tid hierarchies with
//     store-invalidation coherence for multiprocessor traces) and
//     reconcile the result against the originating stats.Run.
package trace

// Field-presence bits for Event. ParseLine records which keys appeared on
// the wire; Validate uses them for the required-field and pairing rules.
const (
	FieldSeq = 1 << iota
	FieldPC
	FieldDisasm
	FieldFetch
	FieldIssue
	FieldComplete
	FieldGraduate
	FieldLevel
	FieldAddr
	FieldKind
	FieldTid
	FieldTrap
)

// requiredFields are the schema-v1 keys every line must carry.
const requiredFields = FieldSeq | FieldPC | FieldDisasm | FieldFetch |
	FieldIssue | FieldComplete | FieldGraduate | FieldLevel | FieldTrap

// Event is one parsed trace line. Numeric fields mirror stats.TraceEvent;
// Disasm is a view of the still-escaped JSON string body inside the
// parsed line's buffer — valid only until the buffer is reused.
type Event struct {
	Seq      uint64
	PC       uint64
	Disasm   []byte
	Fetch    int64
	Issue    int64
	Complete int64
	Graduate int64
	Level    int
	Addr     uint64
	Store    bool
	Tid      int
	Trap     bool

	// Fields is the bitmask of keys present on the wire.
	Fields uint32
}

// Has reports whether the wire line carried the given field bit.
func (e *Event) Has(f uint32) bool { return e.Fields&f != 0 }

// Mem reports whether the event is a memory reference (level > 0).
func (e *Event) Mem() bool { return e.Level > 0 }

// Replayable reports whether the event carries the schema-v2 addr/kind
// pair a memory model needs. Non-memory events are trivially replayable
// (they are skipped).
func (e *Event) Replayable() bool { return e.Level == 0 || e.Has(FieldAddr) }
