// Package interp implements the functional (untimed) model of the
// simulated machine, including the architectural semantics of informing
// memory operations. Both timing cores (internal/inorder, internal/ooo)
// drive a Machine as their front end: the Machine executes instructions in
// dynamic order, resolving each memory reference's hit/miss outcome through
// a pluggable probe, and emits one Rec per dynamic instruction for the
// timing back end to schedule. Used stand-alone it is the golden reference
// model for differential tests.
package interp

import (
	"errors"
	"fmt"
	"math"

	"informing/internal/govern"
	"informing/internal/isa"
	"informing/internal/stats"
)

// Mode selects which informing mechanism is architecturally active.
type Mode uint8

const (
	// ModeOff disables informing behaviour entirely: memory ops still
	// record the cache condition code (it is ordinary user state), but
	// no traps fire. BMISS still tests the condition code.
	ModeOff Mode = iota
	// ModeCondCode is the paper's §2.1 scheme: hit/miss is recorded in a
	// condition code tested by explicit BMISS instructions. No traps.
	ModeCondCode
	// ModeTrap is the paper's §2.2 scheme: an informing memory operation
	// that misses in the primary data cache with a non-zero MHAR
	// transfers control to the MHAR, capturing the return address in
	// the MHRR.
	ModeTrap
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeCondCode:
		return "condcode"
	case ModeTrap:
		return "trap"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Memory levels returned by a Probe.
const (
	LevelL1  = 1 // primary data cache hit
	LevelL2  = 2 // secondary cache hit
	LevelMem = 3 // main memory
)

// Probe architecturally resolves a data reference: it looks up (and
// updates, with allocate-on-miss) the cache tag state and reports which
// level of the hierarchy satisfies the access. A nil Probe means a perfect
// cache (every access is an L1 hit).
type Probe func(addr uint64, write bool) int

// FaultHook perturbs the architecturally resolved level of a data
// reference after the probe has run (internal/faults implements it).
// Implementations must be deterministic: differential tests rely on two
// identically configured runs observing identical outcomes.
type FaultHook interface {
	Outcome(pc, addr uint64, write, inHandler bool, level int) int
}

// Rec describes one dynamically executed instruction. The timing cores
// consume these records in order.
type Rec struct {
	Seq    uint64
	PC     uint64
	Inst   isa.Inst
	SIdx   int // static instruction index: Prog.Text[SIdx] == Inst
	NextPC uint64

	// Memory operations only.
	EA    uint64
	Level int // LevelL1..LevelMem; 0 for non-memory instructions

	// Control flow.
	Taken bool // branch taken (conditional branches and BMISS)
	Trap  bool // an informing miss trap fired after this memory op
}

// TraceEvent builds the per-instruction pipeline trace record from the
// dynamic record plus the timing core's stage timestamps. Both timing
// cores construct their trace events exclusively through this helper at
// retirement/graduation, so the architectural fields — Seq, PC, Disasm,
// MemLevel and in particular the Trap flag — have a single, shared
// definition; the cores differ only in the four timestamps they supply.
// (Historically each core assembled the event by hand at a different
// pipeline stage, which let the field semantics drift; the differential
// trace test in internal/core pins the parity.)
//
// The disassembly text is supplied by the caller — normally
// Machine.Disasms()[r.SIdx] — rather than derived here: disassembling is
// a handful of fmt.Sprintf calls, far too expensive for a per-event cost
// on the sampled trace path, while the text depends only on the static
// instruction and so is computed once per run.
func (r *Rec) TraceEvent(disasm string, fetch, issue, complete, graduate int64) stats.TraceEvent {
	ev := stats.TraceEvent{
		Seq:      r.Seq,
		PC:       r.PC,
		Disasm:   disasm,
		Fetch:    fetch,
		Issue:    issue,
		Complete: complete,
		Graduate: graduate,
		MemLevel: r.Level,
		Trap:     r.Trap,
	}
	if r.Level > 0 {
		// Schema v2 memory-reference fields: the effective address and
		// access kind recorded at execution make the trace replayable
		// through the hierarchy model on its own (internal/trace).
		ev.Addr = r.EA
		ev.Store = r.Inst.IsStore()
	}
	return ev
}

// ErrPC is returned when execution falls outside the text segment.
var ErrPC = errors.New("interp: PC outside text segment")

// ErrTextWrite is returned when a store's effective address lands inside
// the text segment. The predecoded dispatch table (isa.Static) is built
// once from the program text and would silently disagree
// with memory after such a store — fetch reads Prog.Text, data accesses
// read DataMem — so self-modifying code is rejected as a typed error
// instead of diverging (DESIGN.md §14). The faulting store has no
// architectural effect: neither memory nor the cache tag state changes.
var ErrTextWrite = errors.New("interp: store to text segment (self-modifying code is not supported)")

// ErrLimit is returned by Run when the step budget is exhausted.
var ErrLimit = errors.New("interp: instruction limit exceeded")

// Machine is the architectural state plus execution configuration.
type Machine struct {
	Prog *isa.Program
	Mem  *isa.DataMem

	G  [32]uint64  // integer registers; G[0] ignored (reads as 0)
	FR [32]float64 // floating-point registers

	PC     uint64
	MHAR   uint64
	MHRR   uint64
	CCMiss bool // cache-outcome condition code of the last memory op

	// InHandler is the hardware in-handler bit: set on trap entry and
	// cleared by RFMH, it suppresses nested informing traps so the MHRR
	// is not clobbered by misses inside the handler (§5 of DESIGN.md).
	InHandler bool

	// AllowNest permits nested traps (for tests that demonstrate why
	// suppression is needed).
	AllowNest bool

	Mode  Mode
	Probe Probe

	// Faults, when non-nil, perturbs each reference's resolved level
	// after the probe runs (forced misses, spurious hits, poisoned
	// lines; see internal/faults).
	Faults FaultHook

	// TrapThreshold is the hierarchy level a reference must miss past to
	// trigger an informing trap: LevelL1 (default when zero) traps on any
	// primary-cache miss; LevelL2 traps only on secondary-cache misses —
	// the refinement §4.1.3 proposes for software multithreading, where
	// short L2 hits are not worth a context switch.
	TrapThreshold int

	Halted bool
	Seq    uint64 // dynamic instruction count

	// Traps counts informing trap entries; BmissTaken counts taken
	// BMISS branches. MissCounter is the architected hardware miss
	// counter read by MFCNT (the paper's §1 strawman).
	Traps       uint64
	BmissTaken  uint64
	MissCounter uint64

	// Predecoded dispatch state (DESIGN.md §10): the text segment, its
	// base and the per-static-instruction classification are cached here
	// at construction so Step neither re-validates the PC arithmetic nor
	// re-derives instruction invariants per dynamic instance. Built by
	// New; rebuilt lazily when a Machine is constructed as a literal.
	static   []isa.Static
	text     []isa.Inst
	textBase uint64
	textSize uint64   // text-segment length in bytes (store-guard bound)
	disasm   []string // lazily-built per-static-instruction disassembly
}

// New returns a Machine ready to run p from its text base, with memory
// initialised from the program image.
func New(p *isa.Program, mode Mode, probe Probe) *Machine {
	mem := &isa.DataMem{}
	mem.LoadInit(p)
	m := &Machine{Prog: p, Mem: mem, PC: p.TextBase, Mode: mode, Probe: probe}
	m.predecode()
	return m
}

// predecode (re)builds the cached dispatch state from Prog.
func (m *Machine) predecode() {
	m.text = m.Prog.Text
	m.textBase = m.Prog.TextBase
	m.textSize = uint64(len(m.text)) * isa.InstBytes
	m.static = isa.PredecodeText(m.text)
}

// Statics returns the per-static-instruction predecode table, building it
// on first use. The timing cores index it with Rec.SIdx so their
// scheduling loops never re-derive static classification (or allocate;
// Inst.Sources returns a fresh slice, Static.Src does not).
func (m *Machine) Statics() []isa.Static {
	if m.static == nil {
		m.predecode()
	}
	return m.static
}

// Disasms returns the per-static-instruction disassembly table, built on
// first use. Tracing cores index it with Rec.SIdx so a sampled trace
// reuses one string per static instruction instead of re-disassembling
// (several fmt.Sprintf calls, plus allocations) per dynamic instance.
func (m *Machine) Disasms() []string {
	if m.disasm == nil {
		if m.text == nil {
			m.predecode()
		}
		m.disasm = make([]string, len(m.text))
		for k := range m.text {
			m.disasm[k] = m.text[k].String()
		}
	}
	return m.disasm
}

func (m *Machine) g(r isa.Reg) uint64 {
	if r == isa.R0 {
		return 0
	}
	if r.IsFP() {
		// Integer read of an FP register: raw bits. Generators never
		// do this, but keep semantics total for fuzzing.
		return math.Float64bits(m.FR[r.Index()])
	}
	return m.G[r.Index()]
}

func (m *Machine) f(r isa.Reg) float64 {
	if r.IsFP() {
		return m.FR[r.Index()]
	}
	return math.Float64frombits(m.g(r))
}

func (m *Machine) setG(r isa.Reg, v uint64) {
	if r == isa.R0 {
		return
	}
	if r.IsFP() {
		m.FR[r.Index()] = math.Float64frombits(v)
		return
	}
	m.G[r.Index()] = v
}

func (m *Machine) setF(r isa.Reg, v float64) {
	if r.IsFP() {
		m.FR[r.Index()] = v
		return
	}
	m.setG(r, math.Float64bits(v))
}

func (m *Machine) probe(addr uint64, write bool) int {
	if m.Probe == nil {
		return LevelL1
	}
	return m.Probe(addr, write)
}

// Step executes one instruction and returns its dynamic record.
func (m *Machine) Step() (Rec, error) {
	var rec Rec
	err := m.StepInto(&rec)
	return rec, err
}

// StepInto is Step writing the dynamic record into a caller-provided
// buffer. Rec is large enough that the by-value return of Step is a
// measurable fraction of the functional hot loop; the per-instruction
// drivers (Run, the timing cores) hoist one Rec out of their loops and
// step into it.
func (m *Machine) StepInto(rec *Rec) error {
	if m.Halted {
		return errors.New("interp: step on halted machine")
	}
	if m.static == nil {
		m.predecode()
	}
	// Predecoded fetch: the text base, segment and per-instruction
	// classification were cached at construction, so the per-step cost is
	// bounds arithmetic on constants (InstBytes is a power of two).
	off := m.PC - m.textBase
	k := int(off / isa.InstBytes)
	if m.PC < m.textBase || off%isa.InstBytes != 0 || k >= len(m.text) {
		return fmt.Errorf("%w: %#x", ErrPC, m.PC)
	}
	in := &m.text[k]
	st := &m.static[k]
	// Field by field: a composite literal would build a temporary and
	// copy it into *rec, once per simulated instruction.
	rec.Seq, rec.PC, rec.Inst, rec.SIdx = m.Seq, m.PC, *in, k
	rec.EA, rec.Level, rec.Taken, rec.Trap = 0, 0, false, false
	m.Seq++
	next := m.PC + isa.InstBytes

	switch in.Op {
	case isa.Nop:
	case isa.Halt:
		m.Halted = true

	case isa.Add:
		m.setG(in.Rd, m.g(in.Rs1)+m.g(in.Rs2))
	case isa.Sub:
		m.setG(in.Rd, m.g(in.Rs1)-m.g(in.Rs2))
	case isa.Mul:
		m.setG(in.Rd, m.g(in.Rs1)*m.g(in.Rs2))
	case isa.Div:
		d := m.g(in.Rs2)
		if d == 0 {
			m.setG(in.Rd, 0) // defined: divide by zero yields 0
		} else {
			m.setG(in.Rd, uint64(int64(m.g(in.Rs1))/int64(d)))
		}
	case isa.Rem:
		d := m.g(in.Rs2)
		if d == 0 {
			m.setG(in.Rd, m.g(in.Rs1)) // defined: rem by zero yields rs1
		} else {
			m.setG(in.Rd, uint64(int64(m.g(in.Rs1))%int64(d)))
		}
	case isa.And:
		m.setG(in.Rd, m.g(in.Rs1)&m.g(in.Rs2))
	case isa.Or:
		m.setG(in.Rd, m.g(in.Rs1)|m.g(in.Rs2))
	case isa.Xor:
		m.setG(in.Rd, m.g(in.Rs1)^m.g(in.Rs2))
	case isa.Nor:
		m.setG(in.Rd, ^(m.g(in.Rs1) | m.g(in.Rs2)))
	case isa.Sll:
		m.setG(in.Rd, m.g(in.Rs1)<<(m.g(in.Rs2)&63))
	case isa.Srl:
		m.setG(in.Rd, m.g(in.Rs1)>>(m.g(in.Rs2)&63))
	case isa.Sra:
		m.setG(in.Rd, uint64(int64(m.g(in.Rs1))>>(m.g(in.Rs2)&63)))
	case isa.Slt:
		m.setG(in.Rd, b2u(int64(m.g(in.Rs1)) < int64(m.g(in.Rs2))))
	case isa.Sltu:
		m.setG(in.Rd, b2u(m.g(in.Rs1) < m.g(in.Rs2)))

	case isa.Addi:
		m.setG(in.Rd, m.g(in.Rs1)+uint64(in.Imm))
	case isa.Andi:
		m.setG(in.Rd, m.g(in.Rs1)&uint64(in.Imm))
	case isa.Ori:
		m.setG(in.Rd, m.g(in.Rs1)|uint64(in.Imm))
	case isa.Xori:
		m.setG(in.Rd, m.g(in.Rs1)^uint64(in.Imm))
	case isa.Slli:
		m.setG(in.Rd, m.g(in.Rs1)<<(uint64(in.Imm)&63))
	case isa.Srli:
		m.setG(in.Rd, m.g(in.Rs1)>>(uint64(in.Imm)&63))
	case isa.Srai:
		m.setG(in.Rd, uint64(int64(m.g(in.Rs1))>>(uint64(in.Imm)&63)))
	case isa.Slti:
		m.setG(in.Rd, b2u(int64(m.g(in.Rs1)) < in.Imm))
	case isa.Lui:
		m.setG(in.Rd, uint64(in.Imm)<<32)

	case isa.Fadd:
		m.setF(in.Rd, m.f(in.Rs1)+m.f(in.Rs2))
	case isa.Fsub:
		m.setF(in.Rd, m.f(in.Rs1)-m.f(in.Rs2))
	case isa.Fmul:
		m.setF(in.Rd, m.f(in.Rs1)*m.f(in.Rs2))
	case isa.Fdiv:
		m.setF(in.Rd, m.f(in.Rs1)/m.f(in.Rs2))
	case isa.Fsqrt:
		m.setF(in.Rd, math.Sqrt(m.f(in.Rs1)))
	case isa.Fneg:
		m.setF(in.Rd, -m.f(in.Rs1))
	case isa.Fmov:
		m.setF(in.Rd, m.f(in.Rs1))
	case isa.Fcvt:
		m.setF(in.Rd, float64(int64(m.g(in.Rs1))))
	case isa.Icvt:
		m.setG(in.Rd, uint64(int64(m.f(in.Rs1))))
	case isa.Fclt:
		m.setG(in.Rd, b2u(m.f(in.Rs1) < m.f(in.Rs2)))
	case isa.Fceq:
		m.setG(in.Rd, b2u(m.f(in.Rs1) == m.f(in.Rs2)))

	case isa.Ld, isa.Fld, isa.St, isa.Fst, isa.Prefetch:
		ea := m.g(in.Rs1) + uint64(in.Imm)
		isStore := st.Store()
		if isStore && ea-m.textBase < m.textSize {
			// Self-modifying-code seam (DESIGN.md §14): the predecode
			// table is built once from the program text, so a store
			// into the text segment would leave it stale. Reject
			// it before it takes any effect (no memory write, no cache
			// tag update).
			return fmt.Errorf("%w: pc %#x stores to %#x", ErrTextWrite, rec.PC, ea)
		}
		rec.EA = ea
		rec.Level = m.probe(ea, isStore)
		if m.Faults != nil {
			rec.Level = m.Faults.Outcome(m.PC, ea, isStore, m.InHandler, rec.Level)
		}
		switch in.Op {
		case isa.Ld:
			m.setG(in.Rd, m.Mem.Load(ea))
		case isa.Fld:
			m.setF(in.Rd, m.Mem.LoadF(ea))
		case isa.St:
			m.Mem.Store(ea, m.g(in.Rs2))
		case isa.Fst:
			m.Mem.StoreF(ea, m.f(in.Rs2))
		case isa.Prefetch:
			// Tag update only (done by probe); never informs.
		}
		if in.Op != isa.Prefetch {
			m.CCMiss = rec.Level > LevelL1
			if m.CCMiss {
				m.MissCounter++
			}
			threshold := m.TrapThreshold
			if threshold < LevelL1 {
				threshold = LevelL1
			}
			if m.Mode == ModeTrap && in.Informing && rec.Level > threshold &&
				m.MHAR != 0 && (!m.InHandler || m.AllowNest) {
				// Low-overhead miss trap: the memory operation
				// completes (it is non-blocking) and control
				// transfers to the handler atomically.
				m.MHRR = m.PC + isa.InstBytes
				next = m.MHAR
				m.InHandler = true
				m.Traps++
				rec.Trap = true
			}
		}

	case isa.Beq:
		rec.Taken = m.g(in.Rs1) == m.g(in.Rs2)
	case isa.Bne:
		rec.Taken = m.g(in.Rs1) != m.g(in.Rs2)
	case isa.Blt:
		rec.Taken = int64(m.g(in.Rs1)) < int64(m.g(in.Rs2))
	case isa.Bge:
		rec.Taken = int64(m.g(in.Rs1)) >= int64(m.g(in.Rs2))

	case isa.J:
		next = uint64(in.Imm)
	case isa.Jal:
		m.setG(in.Rd, m.PC+isa.InstBytes)
		next = uint64(in.Imm)
	case isa.Jr:
		next = m.g(in.Rs1)
	case isa.Jalr:
		ret := m.PC + isa.InstBytes
		next = m.g(in.Rs1)
		m.setG(in.Rd, ret)

	case isa.Bmiss:
		if m.CCMiss {
			rec.Taken = true
			m.setG(in.Rd, m.PC+isa.InstBytes)
			m.BmissTaken++
		}

	case isa.Mtmhar:
		m.MHAR = m.g(in.Rs1) + uint64(in.Imm)
	case isa.Mtmhrr:
		m.MHRR = m.g(in.Rs1) + uint64(in.Imm)
	case isa.Mfmhar:
		m.setG(in.Rd, m.MHAR)
	case isa.Mfmhrr:
		m.setG(in.Rd, m.MHRR)
	case isa.Mfcnt:
		m.setG(in.Rd, m.MissCounter)
	case isa.Rfmh:
		next = m.MHRR
		m.InHandler = false

	default:
		return fmt.Errorf("interp: %#x: unimplemented op %v", m.PC, in.Op)
	}

	if rec.Taken && st.CondBranch() {
		next = m.PC + isa.InstBytes + uint64(in.Imm)
	}
	rec.NextPC = next
	m.PC = next
	return nil
}

// Run executes until Halt or until limit instructions have run (0 means
// the govern.DefaultBudget guard). On budget exhaustion the error wraps
// both govern.ErrBudget and ErrLimit.
func (m *Machine) Run(limit uint64) error {
	return m.RunGoverned(govern.New(govern.Config{MaxInsts: limit}))
}

// RunGoverned executes until Halt under gov's policy: the instruction
// budget (govern.ErrBudget, wrapping ErrLimit for compatibility) and
// context cancellation (govern.ErrCanceled). Abort errors carry a
// govern.Snapshot of the architectural state. The governor ticks once
// before every instruction, so the snapshot's Seq counts exactly the
// instructions that executed.
func (m *Machine) RunGoverned(gov *govern.Governor) error {
	limit := gov.Budget()
	abort := func(cause error) error {
		return govern.WithSnapshot(cause, govern.Snapshot{
			PC: m.PC, Seq: m.Seq,
			InHandler: m.InHandler, MHAR: m.MHAR, MHRR: m.MHRR,
		})
	}
	var rec Rec
	for !m.Halted {
		if m.Seq >= limit {
			return abort(fmt.Errorf("interp: %w: %w (%d)", govern.ErrBudget, ErrLimit, limit))
		}
		if err := gov.Tick(); err != nil {
			return abort(fmt.Errorf("interp: %w", err))
		}
		if err := m.StepInto(&rec); err != nil {
			return err
		}
	}
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
