package asm

import (
	"fmt"
	"strconv"
	"strings"

	"informing/internal/isa"
)

// Assemble parses assembler text into a program. The syntax is
// line-oriented:
//
//	; or # start comments
//	label:                     text label (may share a line with an op)
//	.data name SIZE            reserve SIZE bytes of data, symbol name
//	.word name V0 V1 ...       reserve and initialise 64-bit words
//	.float name F0 F1 ...      reserve and initialise float64 words
//	op operands                one instruction
//
// Memory operands use off(reg) form: "ld r2, 8(r1)". Informing memory
// ops take a ".i" suffix: "ld.i", "st.i", "fld.i", "fst.i". Branches name
// label targets. "la rd, sym" is a pseudo-instruction materialising a
// data or text symbol address. "li rd, imm" materialises a constant.
func Assemble(src string) (*isa.Program, error) {
	a := &assembler{b: NewBuilder(), dataRefs: map[int]string{}}
	for ln, raw := range strings.Split(src, "\n") {
		if err := a.line(raw); err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	// Resolve data-symbol references (la pseudo-ops) after all symbols
	// are known; text labels were handled through Builder fixups.
	p, err := a.b.Finish()
	if err != nil {
		return nil, err
	}
	for idx, sym := range a.dataRefs {
		addr, ok := p.Symbols[sym]
		if !ok {
			return nil, fmt.Errorf("undefined symbol %q", sym)
		}
		p.Text[idx].Imm = int64(addr)
	}
	return p, nil
}

type assembler struct {
	b *assemblerBuilder
	// dataRefs maps text index -> symbol for "la" pseudo-ops resolved
	// after assembly (symbols may be data labels the Builder fixup
	// machinery does not cover).
	dataRefs map[int]string
}

// assemblerBuilder is a local alias to keep the struct literal above tidy.
type assemblerBuilder = Builder

func (a *assembler) line(raw string) error {
	s := raw
	if k := strings.IndexAny(s, ";#"); k >= 0 {
		s = s[:k]
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	// Leading label(s).
	for {
		k := strings.Index(s, ":")
		if k < 0 {
			break
		}
		name := strings.TrimSpace(s[:k])
		if name == "" || strings.ContainsAny(name, " \t,()") {
			break
		}
		a.b.Label(name)
		s = strings.TrimSpace(s[k+1:])
		if s == "" {
			return nil
		}
	}
	if strings.HasPrefix(s, ".") {
		return a.directive(s)
	}
	return a.inst(s)
}

func (a *assembler) directive(s string) error {
	f := strings.Fields(s)
	switch f[0] {
	case ".data":
		if len(f) != 3 {
			return fmt.Errorf(".data wants: .data name size")
		}
		size, err := strconv.ParseUint(f[2], 0, 64)
		if err != nil {
			return fmt.Errorf(".data size: %v", err)
		}
		a.b.Alloc(f[1], size)
		return nil
	case ".word":
		if len(f) < 3 {
			return fmt.Errorf(".word wants: .word name v...")
		}
		vals := make([]uint64, 0, len(f)-2)
		for _, t := range f[2:] {
			v, err := strconv.ParseInt(t, 0, 64)
			if err != nil {
				return fmt.Errorf(".word value %q: %v", t, err)
			}
			vals = append(vals, uint64(v))
		}
		a.b.Words(f[1], vals...)
		return nil
	case ".float":
		if len(f) < 3 {
			return fmt.Errorf(".float wants: .float name v...")
		}
		vals := make([]float64, 0, len(f)-2)
		for _, t := range f[2:] {
			v, err := strconv.ParseFloat(t, 64)
			if err != nil {
				return fmt.Errorf(".float value %q: %v", t, err)
			}
			vals = append(vals, v)
		}
		a.b.Floats(f[1], vals...)
		return nil
	default:
		return fmt.Errorf("unknown directive %s", f[0])
	}
}

func parseReg(t string) (isa.Reg, error) {
	t = strings.TrimSpace(t)
	if len(t) < 2 {
		return 0, fmt.Errorf("bad register %q", t)
	}
	n, err := strconv.Atoi(t[1:])
	if err != nil || n < 0 || n > 31 {
		return 0, fmt.Errorf("bad register %q", t)
	}
	switch t[0] {
	case 'r':
		return isa.R(n), nil
	case 'f':
		return isa.F(n), nil
	}
	return 0, fmt.Errorf("bad register %q", t)
}

func parseImm(t string) (int64, error) {
	return strconv.ParseInt(strings.TrimSpace(t), 0, 64)
}

// parseMem parses "off(reg)".
func parseMem(t string) (isa.Reg, int64, error) {
	t = strings.TrimSpace(t)
	open := strings.Index(t, "(")
	if open < 0 || !strings.HasSuffix(t, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", t)
	}
	off := int64(0)
	if open > 0 {
		v, err := parseImm(t[:open])
		if err != nil {
			return 0, 0, fmt.Errorf("bad offset in %q: %v", t, err)
		}
		off = v
	}
	r, err := parseReg(t[open+1 : len(t)-1])
	return r, off, err
}

func (a *assembler) inst(s string) error {
	sp := strings.IndexAny(s, " \t")
	mnem, rest := s, ""
	if sp >= 0 {
		mnem, rest = s[:sp], strings.TrimSpace(s[sp+1:])
	}
	var ops []string
	if rest != "" {
		ops = strings.Split(rest, ",")
		for k := range ops {
			ops[k] = strings.TrimSpace(ops[k])
		}
	}
	inf := false
	if strings.HasSuffix(mnem, ".i") {
		inf = true
		mnem = strings.TrimSuffix(mnem, ".i")
	}
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s wants %d operands, got %d", mnem, n, len(ops))
		}
		return nil
	}

	switch mnem {
	case "nop":
		a.b.Nop()
	case "halt":
		a.b.Halt()
	case "rfmh":
		a.b.Rfmh()
	case "add", "sub", "mul", "div", "rem", "and", "or", "xor", "nor",
		"sll", "srl", "sra", "slt", "sltu",
		"fadd", "fsub", "fmul", "fdiv", "fclt", "fceq":
		if err := need(3); err != nil {
			return err
		}
		rd, e1 := parseReg(ops[0])
		r1, e2 := parseReg(ops[1])
		r2, e3 := parseReg(ops[2])
		op, e4 := opByName(mnem)
		if err := firstErr(e1, e2, e3, e4); err != nil {
			return err
		}
		a.b.rrr(op, rd, r1, r2)
	case "addi", "andi", "ori", "xori", "slli", "srli", "srai", "slti":
		if err := need(3); err != nil {
			return err
		}
		rd, e1 := parseReg(ops[0])
		r1, e2 := parseReg(ops[1])
		imm, e3 := parseImm(ops[2])
		op, e4 := opByName(mnem)
		if err := firstErr(e1, e2, e3, e4); err != nil {
			return err
		}
		a.b.rri(op, rd, r1, imm)
	case "lui":
		if err := need(2); err != nil {
			return err
		}
		rd, e1 := parseReg(ops[0])
		imm, e2 := parseImm(ops[1])
		if err := firstErr(e1, e2); err != nil {
			return err
		}
		a.b.rri(isa.Lui, rd, isa.R0, imm)
	case "fsqrt", "fneg", "fmov", "fcvt", "icvt":
		if err := need(2); err != nil {
			return err
		}
		rd, e1 := parseReg(ops[0])
		r1, e2 := parseReg(ops[1])
		op, e3 := opByName(mnem)
		if err := firstErr(e1, e2, e3); err != nil {
			return err
		}
		a.b.rrr(op, rd, r1, isa.R0)
	case "ld", "fld", "prefetch":
		if mnem == "prefetch" {
			if err := need(1); err != nil {
				return err
			}
			base, off, err := parseMem(ops[0])
			if err != nil {
				return err
			}
			a.b.Prefetch(base, off)
			return nil
		}
		if err := need(2); err != nil {
			return err
		}
		rd, e1 := parseReg(ops[0])
		base, off, e2 := parseMem(ops[1])
		op, e3 := opByName(mnem)
		if err := firstErr(e1, e2, e3); err != nil {
			return err
		}
		a.b.Emit(isa.Inst{Op: op, Rd: rd, Rs1: base, Imm: off, Informing: inf})
	case "st", "fst":
		if err := need(2); err != nil {
			return err
		}
		rv, e1 := parseReg(ops[0])
		base, off, e2 := parseMem(ops[1])
		op, e3 := opByName(mnem)
		if err := firstErr(e1, e2, e3); err != nil {
			return err
		}
		a.b.Emit(isa.Inst{Op: op, Rs2: rv, Rs1: base, Imm: off, Informing: inf})
	case "beq", "bne", "blt", "bge":
		if err := need(3); err != nil {
			return err
		}
		r1, e1 := parseReg(ops[0])
		r2, e2 := parseReg(ops[1])
		op, e3 := opByName(mnem)
		if err := firstErr(e1, e2, e3); err != nil {
			return err
		}
		a.b.branch(op, r1, r2, ops[2])
	case "j":
		if err := need(1); err != nil {
			return err
		}
		a.b.J(ops[0])
	case "jal":
		if err := need(2); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		a.b.Jal(rd, ops[1])
	case "jr":
		if err := need(1); err != nil {
			return err
		}
		r1, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		a.b.Jr(r1)
	case "jalr":
		if err := need(2); err != nil {
			return err
		}
		rd, e1 := parseReg(ops[0])
		r1, e2 := parseReg(ops[1])
		if err := firstErr(e1, e2); err != nil {
			return err
		}
		a.b.Jalr(rd, r1)
	case "bmiss":
		if err := need(2); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		a.b.Bmiss(rd, ops[1])
	case "mtmhar":
		switch len(ops) {
		case 1:
			// Label or register form.
			if r, err := parseReg(ops[0]); err == nil {
				a.b.MtmharReg(r, 0)
			} else {
				a.b.MtmharLabel(ops[0])
			}
		case 2:
			r, e1 := parseReg(ops[0])
			imm, e2 := parseImm(ops[1])
			if err := firstErr(e1, e2); err != nil {
				return err
			}
			a.b.MtmharReg(r, imm)
		default:
			return fmt.Errorf("mtmhar wants 1 or 2 operands")
		}
	case "mtmhrr":
		switch len(ops) {
		case 1:
			if r, err := parseReg(ops[0]); err == nil {
				a.b.MtmhrrReg(r, 0)
			} else {
				a.b.MtmhrrLabel(ops[0])
			}
		case 2:
			r, e1 := parseReg(ops[0])
			imm, e2 := parseImm(ops[1])
			if err := firstErr(e1, e2); err != nil {
				return err
			}
			a.b.MtmhrrReg(r, imm)
		default:
			return fmt.Errorf("mtmhrr wants 1 or 2 operands")
		}
	case "mfmhar", "mfmhrr", "mfcnt":
		if err := need(1); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		switch mnem {
		case "mfmhar":
			a.b.Mfmhar(rd)
		case "mfmhrr":
			a.b.Mfmhrr(rd)
		default:
			a.b.Mfcnt(rd)
		}
	case "li":
		if err := need(2); err != nil {
			return err
		}
		rd, e1 := parseReg(ops[0])
		imm, e2 := parseImm(ops[1])
		if err := firstErr(e1, e2); err != nil {
			return err
		}
		a.b.LoadImm(rd, imm)
	case "la":
		if err := need(2); err != nil {
			return err
		}
		rd, err := parseReg(ops[0])
		if err != nil {
			return err
		}
		a.dataRefs[a.b.Pos()] = ops[1]
		a.b.Addi(rd, isa.R0, 0) // imm patched after symbol resolution
	default:
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}
	return nil
}

func opByName(name string) (isa.Op, error) {
	for o := isa.Op(0); int(o) < isa.NumOps; o++ {
		if o.String() == name {
			return o, nil
		}
	}
	return 0, fmt.Errorf("asm: unknown op name %q", name)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
