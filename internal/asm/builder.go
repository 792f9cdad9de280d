// Package asm provides two front ends that produce isa.Program values: a
// programmatic Builder used by the workload generators, and a small text
// assembler (see Assemble) for hand-written programs and tests.
package asm

import (
	"fmt"
	"math"

	"informing/internal/isa"
)

// Builder incrementally constructs a program. Methods record errors
// internally; Finish reports the first one. This lets generator code emit
// long sequences without per-call error plumbing.
type Builder struct {
	text    []isa.Inst
	base    uint64
	labels  map[string]int // label -> text index
	dataSym map[string]uint64
	fixups  []fixup
	dataCur uint64
	dataBas uint64
	init    map[uint64]uint64
	errs    []error
	nextLbl int
}

type fixupKind uint8

const (
	fixRel fixupKind = iota // PC-relative branch: imm = target - (pc+8)
	fixAbs                  // absolute address in imm (J/Jal/Mtmhar)
)

type fixup struct {
	index int
	label string
	kind  fixupKind
}

// NewBuilder returns an empty Builder using the default segment layout.
func NewBuilder() *Builder {
	return &Builder{
		base:    isa.DefaultTextBase,
		labels:  make(map[string]int),
		dataSym: make(map[string]uint64),
		dataBas: isa.DefaultDataBase,
		init:    make(map[uint64]uint64),
	}
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Pos returns the current text index (the index of the next emitted
// instruction).
func (b *Builder) Pos() int { return len(b.text) }

// Label defines name at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errf("asm: duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.text)
}

// Unique returns a fresh label name with the given prefix.
func (b *Builder) Unique(prefix string) string {
	b.nextLbl++
	return fmt.Sprintf("%s$%d", prefix, b.nextLbl)
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) { b.text = append(b.text, in) }

// --- data segment -----------------------------------------------------

// Alloc reserves size bytes (rounded up to 8) in the data segment and
// returns the base address; name may be empty for anonymous blocks.
func (b *Builder) Alloc(name string, size uint64) uint64 {
	addr := b.dataBas + b.dataCur
	b.dataCur += (size + 7) &^ 7
	if name != "" {
		if _, dup := b.dataSym[name]; dup {
			b.errf("asm: duplicate data symbol %q", name)
		}
		b.dataSym[name] = addr
	}
	return addr
}

// AllocAligned reserves size bytes aligned to align bytes (a power of two).
func (b *Builder) AllocAligned(name string, size, align uint64) uint64 {
	if align&(align-1) != 0 || align == 0 {
		b.errf("asm: alignment %d not a power of two", align)
		align = 8
	}
	cur := b.dataBas + b.dataCur
	pad := (align - cur%align) % align
	b.dataCur += pad
	return b.Alloc(name, size)
}

// Words reserves and initialises consecutive 64-bit words, returning the
// base address.
func (b *Builder) Words(name string, vals ...uint64) uint64 {
	addr := b.Alloc(name, uint64(len(vals))*8)
	for k, v := range vals {
		b.init[addr+uint64(k)*8] = v
	}
	return addr
}

// Floats reserves and initialises consecutive float64 words.
func (b *Builder) Floats(name string, vals ...float64) uint64 {
	w := make([]uint64, len(vals))
	for k, v := range vals {
		w[k] = math.Float64bits(v)
	}
	return b.Words(name, w...)
}

// InitWord sets the initial value of an already-allocated word.
func (b *Builder) InitWord(addr, val uint64) { b.init[addr] = val }

// --- instruction helpers ----------------------------------------------

func (b *Builder) rrr(op isa.Op, rd, rs1, rs2 isa.Reg) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2})
}

func (b *Builder) rri(op isa.Op, rd, rs1 isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm})
}

// Integer ALU.
func (b *Builder) Add(rd, rs1, rs2 isa.Reg)  { b.rrr(isa.Add, rd, rs1, rs2) }
func (b *Builder) Sub(rd, rs1, rs2 isa.Reg)  { b.rrr(isa.Sub, rd, rs1, rs2) }
func (b *Builder) Mul(rd, rs1, rs2 isa.Reg)  { b.rrr(isa.Mul, rd, rs1, rs2) }
func (b *Builder) Div(rd, rs1, rs2 isa.Reg)  { b.rrr(isa.Div, rd, rs1, rs2) }
func (b *Builder) Rem(rd, rs1, rs2 isa.Reg)  { b.rrr(isa.Rem, rd, rs1, rs2) }
func (b *Builder) And(rd, rs1, rs2 isa.Reg)  { b.rrr(isa.And, rd, rs1, rs2) }
func (b *Builder) Or(rd, rs1, rs2 isa.Reg)   { b.rrr(isa.Or, rd, rs1, rs2) }
func (b *Builder) Xor(rd, rs1, rs2 isa.Reg)  { b.rrr(isa.Xor, rd, rs1, rs2) }
func (b *Builder) Nor(rd, rs1, rs2 isa.Reg)  { b.rrr(isa.Nor, rd, rs1, rs2) }
func (b *Builder) Sll(rd, rs1, rs2 isa.Reg)  { b.rrr(isa.Sll, rd, rs1, rs2) }
func (b *Builder) Srl(rd, rs1, rs2 isa.Reg)  { b.rrr(isa.Srl, rd, rs1, rs2) }
func (b *Builder) Slt(rd, rs1, rs2 isa.Reg)  { b.rrr(isa.Slt, rd, rs1, rs2) }
func (b *Builder) Sltu(rd, rs1, rs2 isa.Reg) { b.rrr(isa.Sltu, rd, rs1, rs2) }

func (b *Builder) Addi(rd, rs1 isa.Reg, imm int64) { b.rri(isa.Addi, rd, rs1, imm) }
func (b *Builder) Andi(rd, rs1 isa.Reg, imm int64) { b.rri(isa.Andi, rd, rs1, imm) }
func (b *Builder) Ori(rd, rs1 isa.Reg, imm int64)  { b.rri(isa.Ori, rd, rs1, imm) }
func (b *Builder) Xori(rd, rs1 isa.Reg, imm int64) { b.rri(isa.Xori, rd, rs1, imm) }
func (b *Builder) Slli(rd, rs1 isa.Reg, imm int64) { b.rri(isa.Slli, rd, rs1, imm) }
func (b *Builder) Srli(rd, rs1 isa.Reg, imm int64) { b.rri(isa.Srli, rd, rs1, imm) }
func (b *Builder) Slti(rd, rs1 isa.Reg, imm int64) { b.rri(isa.Slti, rd, rs1, imm) }
func (b *Builder) Nop()                            { b.Emit(isa.Inst{Op: isa.Nop}) }

// LoadImm materialises a constant that fits in int32 with a single Addi.
// Larger constants are rejected (the simulated address space fits).
func (b *Builder) LoadImm(rd isa.Reg, v int64) {
	if v < math.MinInt32 || v > math.MaxInt32 {
		b.errf("asm: LoadImm %d out of 32-bit range", v)
		return
	}
	b.Addi(rd, isa.R0, v)
}

// Move copies rs1 into rd.
func (b *Builder) Move(rd, rs1 isa.Reg) { b.Add(rd, rs1, isa.R0) }

// Floating point.
func (b *Builder) Fadd(fd, fs1, fs2 isa.Reg) { b.rrr(isa.Fadd, fd, fs1, fs2) }
func (b *Builder) Fsub(fd, fs1, fs2 isa.Reg) { b.rrr(isa.Fsub, fd, fs1, fs2) }
func (b *Builder) Fmul(fd, fs1, fs2 isa.Reg) { b.rrr(isa.Fmul, fd, fs1, fs2) }
func (b *Builder) Fdiv(fd, fs1, fs2 isa.Reg) { b.rrr(isa.Fdiv, fd, fs1, fs2) }
func (b *Builder) Fsqrt(fd, fs1 isa.Reg)     { b.rrr(isa.Fsqrt, fd, fs1, isa.R0) }
func (b *Builder) Fneg(fd, fs1 isa.Reg)      { b.rrr(isa.Fneg, fd, fs1, isa.R0) }
func (b *Builder) Fmov(fd, fs1 isa.Reg)      { b.rrr(isa.Fmov, fd, fs1, isa.R0) }
func (b *Builder) Fcvt(fd, rs1 isa.Reg)      { b.rrr(isa.Fcvt, fd, rs1, isa.R0) }
func (b *Builder) Icvt(rd, fs1 isa.Reg)      { b.rrr(isa.Icvt, rd, fs1, isa.R0) }
func (b *Builder) Fclt(rd, fs1, fs2 isa.Reg) { b.rrr(isa.Fclt, rd, fs1, fs2) }

// Memory. The inf flag marks the reference as informing.
func (b *Builder) Ld(rd, base isa.Reg, off int64, inf bool) {
	b.Emit(isa.Inst{Op: isa.Ld, Rd: rd, Rs1: base, Imm: off, Informing: inf})
}
func (b *Builder) St(val, base isa.Reg, off int64, inf bool) {
	b.Emit(isa.Inst{Op: isa.St, Rs2: val, Rs1: base, Imm: off, Informing: inf})
}
func (b *Builder) Fld(fd, base isa.Reg, off int64, inf bool) {
	b.Emit(isa.Inst{Op: isa.Fld, Rd: fd, Rs1: base, Imm: off, Informing: inf})
}
func (b *Builder) Fst(fv, base isa.Reg, off int64, inf bool) {
	b.Emit(isa.Inst{Op: isa.Fst, Rs2: fv, Rs1: base, Imm: off, Informing: inf})
}
func (b *Builder) Prefetch(base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.Prefetch, Rs1: base, Imm: off})
}

// Control flow (label targets).
func (b *Builder) branch(op isa.Op, rs1, rs2 isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{len(b.text), label, fixRel})
	b.Emit(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

func (b *Builder) Beq(rs1, rs2 isa.Reg, label string) { b.branch(isa.Beq, rs1, rs2, label) }
func (b *Builder) Bne(rs1, rs2 isa.Reg, label string) { b.branch(isa.Bne, rs1, rs2, label) }
func (b *Builder) Blt(rs1, rs2 isa.Reg, label string) { b.branch(isa.Blt, rs1, rs2, label) }
func (b *Builder) Bge(rs1, rs2 isa.Reg, label string) { b.branch(isa.Bge, rs1, rs2, label) }

func (b *Builder) J(label string) {
	b.fixups = append(b.fixups, fixup{len(b.text), label, fixAbs})
	b.Emit(isa.Inst{Op: isa.J})
}

func (b *Builder) Jal(rd isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{len(b.text), label, fixAbs})
	b.Emit(isa.Inst{Op: isa.Jal, Rd: rd})
}

func (b *Builder) Jr(rs1 isa.Reg)       { b.Emit(isa.Inst{Op: isa.Jr, Rs1: rs1}) }
func (b *Builder) Jalr(rd, rs1 isa.Reg) { b.Emit(isa.Inst{Op: isa.Jalr, Rd: rd, Rs1: rs1}) }

// Informing extensions.

// Bmiss emits a branch-and-link-on-miss to label, linking into rd.
func (b *Builder) Bmiss(rd isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{len(b.text), label, fixRel})
	b.Emit(isa.Inst{Op: isa.Bmiss, Rd: rd})
}

// MtmharLabel loads the MHAR with the address of a text label.
func (b *Builder) MtmharLabel(label string) {
	b.fixups = append(b.fixups, fixup{len(b.text), label, fixAbs})
	b.Emit(isa.Inst{Op: isa.Mtmhar, Rs1: isa.R0})
}

// MtmharReg loads the MHAR from rs1+imm.
func (b *Builder) MtmharReg(rs1 isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.Mtmhar, Rs1: rs1, Imm: imm})
}

// MtmharZero disables informing traps.
func (b *Builder) MtmharZero() { b.Emit(isa.Inst{Op: isa.Mtmhar, Rs1: isa.R0}) }

// LoadLabel materialises the address of a text label into rd.
func (b *Builder) LoadLabel(rd isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{len(b.text), label, fixAbs})
	b.Emit(isa.Inst{Op: isa.Addi, Rd: rd, Rs1: isa.R0})
}

// MtmhrrReg loads the MHRR from rs1+imm (software context switching).
func (b *Builder) MtmhrrReg(rs1 isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.Mtmhrr, Rs1: rs1, Imm: imm})
}

// MtmhrrLabel loads the MHRR with the address of a text label.
func (b *Builder) MtmhrrLabel(label string) {
	b.fixups = append(b.fixups, fixup{len(b.text), label, fixAbs})
	b.Emit(isa.Inst{Op: isa.Mtmhrr, Rs1: isa.R0})
}

func (b *Builder) Mfmhar(rd isa.Reg) { b.Emit(isa.Inst{Op: isa.Mfmhar, Rd: rd}) }

// Mfcnt reads the hardware L1-miss counter (serializing on the
// out-of-order machine, as the paper notes for the R10000).
func (b *Builder) Mfcnt(rd isa.Reg)  { b.Emit(isa.Inst{Op: isa.Mfcnt, Rd: rd}) }
func (b *Builder) Mfmhrr(rd isa.Reg) { b.Emit(isa.Inst{Op: isa.Mfmhrr, Rd: rd}) }
func (b *Builder) Rfmh()             { b.Emit(isa.Inst{Op: isa.Rfmh}) }
func (b *Builder) Halt()             { b.Emit(isa.Inst{Op: isa.Halt}) }

// --- finalisation -------------------------------------------------------

// Finish resolves labels, validates the program and returns it. The
// Builder must not be reused afterwards.
func (b *Builder) Finish() (*isa.Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	p := &isa.Program{
		TextBase: b.base,
		Text:     b.text,
		DataBase: b.dataBas,
		DataSize: b.dataCur,
		Init:     b.init,
		Symbols:  make(map[string]uint64, len(b.labels)+len(b.dataSym)),
	}
	for name, idx := range b.labels {
		p.Symbols[name] = p.PCOf(idx)
	}
	for name, addr := range b.dataSym {
		p.Symbols[name] = addr
	}
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm: undefined label %q", f.label)
		}
		target := p.PCOf(idx)
		switch f.kind {
		case fixRel:
			pc := p.PCOf(f.index)
			p.Text[f.index].Imm = int64(target) - int64(pc) - isa.InstBytes
		case fixAbs:
			p.Text[f.index].Imm = int64(target)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if _, err := p.EncodeText(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustFinish is Finish that panics on error; for generators whose inputs
// are statically known to be valid.
func (b *Builder) MustFinish() *isa.Program {
	p, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return p
}
