package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrParse wraps every syntax-level rejection from ParseLine so callers
// can distinguish malformed JSON from semantic (Validate) violations.
var ErrParse = errors.New("trace: malformed line")

func parseErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrParse, fmt.Sprintf(format, args...))
}

// ParseLine parses one JSONL trace line into ev. It is strict — unknown
// keys, duplicate keys, malformed escapes, non-integer numbers and
// trailing bytes after the closing brace are all errors — and it does not
// allocate: numeric fields are accumulated in place and ev.Disasm is a
// view into line (valid only while line's buffer is). The fields of keys
// the line does not carry are zero; after an error, ev holds nothing
// meaningful.
//
// Against encoding/json with DisallowUnknownFields, a differential test
// and FuzzParseLine pin its accept/reject behavior and every field it
// decodes. It is stricter in ways the encoder never needs: a repeated
// key, data after the object, null for any value, a key in another case
// ("SEQ") or spelled with escapes ("s\u0065q"), and pc, addr, kind and
// tid values outside the schema (pc and addr are "0x<hex>" strings
// without escapes, kind is "load" or "store", tid an unsigned integer up
// to 1<<20).
//
// Keys are matched in one loop. Before scanning a key, the loop checks
// whether the line holds the key the encoder writes next
// (obs.appendTraceJSON's order), with one or two word compares; any
// other key, or whitespace before it, goes through the general scan and
// lookup. The order is only a hint: any order and spacing of the same
// members parses to the same Event.
func ParseLine(line []byte, ev *Event) error {
	i := 0
	if len(line) == 0 || line[0] != '{' {
		if i = skipWS(line, 0); i >= len(line) || line[i] != '{' {
			return parseErr("expected '{'")
		}
	}
	i++
	if i >= len(line) || line[i] != '"' {
		if i = skipWS(line, i); i < len(line) && line[i] == '}' {
			// Empty object: syntactically fine; Validate rejects it for the
			// missing required fields.
			ev.setFields(0)
			return expectEnd(line, i+1)
		}
	}
	var seen uint32
	for next := keySeq; ; {
		k := next
		if n := keyToken(line[i:], next); n > 0 {
			i += n
		} else {
			i = skipWS(line, i)
			key, j, err := scanString(line, i)
			if err != nil {
				return err
			}
			if i = skipWS(line, j); i >= len(line) || line[i] != ':' {
				return parseErr("expected ':' after key %q", key)
			}
			i++
			if k = lookupKey(key); k < 0 {
				return parseErr("unknown key %q", key)
			}
		}
		if seen&(1<<k) != 0 {
			return parseErr("duplicate key %q", keyNames[k])
		}
		seen |= 1 << k
		if i < len(line) && line[i] <= ' ' {
			i = skipWS(line, i)
		}

		next = k + 1
		var err error
		switch k {
		case keySeq:
			ev.Seq, i, err = scanUint(line, i, k)
		case keyPC:
			ev.PC, i, err = scanHexString(line, i, k)
		case keyDisasm:
			ev.Disasm, i, err = scanString(line, i)
		case keyFetch:
			ev.Fetch, i, err = scanInt(line, i, k)
		case keyIssue:
			ev.Issue, i, err = scanInt(line, i, k)
		case keyComplete:
			ev.Complete, i, err = scanInt(line, i, k)
		case keyGraduate:
			ev.Graduate, i, err = scanInt(line, i, k)
		case keyLevel:
			var v int64
			v, i, err = scanInt(line, i, k)
			ev.Level = int(v)
			if v <= 0 { // the encoder writes addr and kind on memory events only
				next = keyTrap
			}
		case keyAddr:
			ev.Addr, i, err = scanHexString(line, i, k)
		case keyKind:
			ev.Store, i, err = scanKind(line, i)
			next = keyTrap // tid, written only when nonzero, is rare
		case keyTid:
			var v uint64
			v, i, err = scanUint(line, i, k)
			if err == nil && v > 1<<20 {
				err = parseErr("tid %d out of range", v)
			}
			ev.Tid = int(v)
		case keyTrap:
			ev.Trap, i, err = scanBool(line, i, k)
		}
		if err != nil {
			return err
		}

		if i < len(line) && line[i] == ',' {
			i++
			continue
		}
		if i = skipWS(line, i); i >= len(line) {
			return parseErr("unterminated object")
		}
		switch line[i] {
		case ',':
			i++
		case '}':
			ev.setFields(seen)
			return expectEnd(line, i+1)
		default:
			return parseErr("expected ',' or '}' after value of %q", keyNames[k])
		}
	}
}

// A keyTok is the token `"name":` that opens a member with one key, as
// two little-endian words and the masks of its bytes in them.
type keyTok struct {
	word, mask [2]uint64
	n          int // token length, at most 16
}

// keyToks holds the token of each key, plus one that matches nothing for
// the prediction after the last key.
var keyToks = func() (t [numKeys + 1]keyTok) {
	for k, name := range keyNames {
		var b [16]byte
		tok := `"` + name + `":`
		copy(b[:], tok)
		for w := range t[k].word {
			t[k].word[w] = binary.LittleEndian.Uint64(b[8*w:])
			if m := len(tok) - 8*w; m > 0 {
				t[k].mask[w] = 1<<(8*min(m, 8)) - 1
			}
		}
		t[k].n = len(tok)
	}
	t[numKeys].word[0] = 1 // under a zero mask: never equal
	return t
}()

// keyToken returns the length of key k's token when b starts with it,
// and 0 otherwise: a compare of one or two masked words, no call.
func keyToken(b []byte, k int) int {
	t := &keyToks[k]
	if len(b) < 8 || binary.LittleEndian.Uint64(b)&t.mask[0] != t.word[0] {
		return 0
	}
	if t.n > 8 && (len(b) < 16 || binary.LittleEndian.Uint64(b[8:])&t.mask[1] != t.word[1]) {
		return 0
	}
	return t.n
}

// lookupKey returns the index of the key whose still-escaped body is key,
// or -1. Names match exactly: no case folding and no unescaping.
func lookupKey(key []byte) int {
	for k, name := range keyNames {
		if string(key) == name {
			return k
		}
	}
	return -1
}

// setFields records the keys seen and zeroes the fields of the others.
func (e *Event) setFields(seen uint32) {
	e.Fields = seen
	if seen&FieldTid == 0 {
		e.Tid = 0
	}
	if seen&FieldAddr == 0 {
		e.Addr = 0
	}
	if seen&FieldKind == 0 {
		e.Store = false
	}
	if seen&requiredFields == requiredFields {
		return
	}
	if seen&FieldSeq == 0 {
		e.Seq = 0
	}
	if seen&FieldPC == 0 {
		e.PC = 0
	}
	if seen&FieldDisasm == 0 {
		e.Disasm = nil
	}
	if seen&FieldFetch == 0 {
		e.Fetch = 0
	}
	if seen&FieldIssue == 0 {
		e.Issue = 0
	}
	if seen&FieldComplete == 0 {
		e.Complete = 0
	}
	if seen&FieldGraduate == 0 {
		e.Graduate = 0
	}
	if seen&FieldLevel == 0 {
		e.Level = 0
	}
	if seen&FieldTrap == 0 {
		e.Trap = false
	}
}

func skipWS(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

func expectEnd(b []byte, i int) error {
	if i = skipWS(b, i); i != len(b) {
		return parseErr("trailing data after object")
	}
	return nil
}

// strStop marks the bytes that end a run of plain string bytes: the
// quote, the backslash and the control characters JSON forbids raw.
var strStop = func() (t [256]bool) {
	for c := 0; c < 0x20; c++ {
		t[c] = true
	}
	t['"'], t['\\'] = true, true
	return t
}()

// scanString scans a JSON string at b[i] and returns the still-escaped
// body (the bytes between the quotes). Escape sequences are checked for
// shape; invalid UTF-8 passes through, matching encoding/json's lenient
// replacement behavior.
func scanString(b []byte, i int) (body []byte, next int, err error) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, parseErr("expected string")
	}
	start := i + 1
	for j := start; ; {
		for j < len(b) && !strStop[b[j]] {
			j++
		}
		if j >= len(b) {
			return nil, i, parseErr("unterminated string")
		}
		switch b[j] {
		case '"':
			return b[start:j], j + 1, nil
		case '\\':
			if j+1 >= len(b) {
				return nil, j, parseErr("unterminated escape")
			}
			switch b[j+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				j += 2
			case 'u':
				if j+6 > len(b) || !isHex4(b[j+2:j+6]) {
					return nil, j, parseErr("bad \\u escape")
				}
				j += 6
			default:
				return nil, j, parseErr("bad escape '\\%c'", b[j+1])
			}
		default:
			return nil, j, parseErr("raw control character in string")
		}
	}
}

// hexVal maps a hex digit to its value and every other byte to 0xff.
var hexVal = func() (t [256]byte) {
	for c := range t {
		t[c] = 0xff
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = byte(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = byte(c-'a') + 10
		t[c-'a'+'A'] = byte(c-'a') + 10
	}
	return t
}()

func isHex4(b []byte) bool {
	return hexVal[b[0]]|hexVal[b[1]]|hexVal[b[2]]|hexVal[b[3]] != 0xff
}

// scanUint scans a non-negative JSON integer (no sign, fraction,
// exponent or leading zeros). Up to eight digits are read at once as one
// word; any further digits go one by one, and only from the 20th on
// does a digit need an overflow check, since every 19-digit number fits
// in a uint64.
func scanUint(b []byte, i, k int) (uint64, int, error) {
	start := i
	var v uint64
	n := uint(8) // digits read as a word
	if len(b)-i >= 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		n = digitRun(x)
		// The shift drops the bytes after the digits and puts zero
		// bytes, read as leading zeros, in front of them.
		v = eightDigits(x << (64 - 8*n))
		i += int(n)
	}
	if n == 8 {
		for ; i < len(b); i++ {
			d := uint64(b[i] - '0')
			if d > 9 {
				break
			}
			if i-start >= 19 && v > (1<<64-1-d)/10 {
				return 0, i, parseErr("%q overflows uint64", keyNames[k])
			}
			v = v*10 + d
		}
	}
	switch {
	case i == start:
		return 0, i, parseErr("%q: expected unsigned integer", keyNames[k])
	case b[start] == '0' && i-start > 1:
		return 0, i, parseErr("%q: leading zero", keyNames[k])
	}
	return v, i, nil
}

// digitRun returns how many of the eight bytes of x, taken from the low
// byte up, are ASCII digits before the first byte that is not. A byte
// is flagged when subtracting '0' wraps (below '0') or adding 0x80-('9'+1)
// sets its top bit (above '9'); bytes below the first flagged one are
// digits, so no borrow or carry reaches it.
func digitRun(x uint64) uint {
	const ones = 0x0101010101010101
	flags := ((x - '0'*ones) | (x + (0x80-'9'-1)*ones)) & (0x80 * ones)
	return uint(bits.TrailingZeros64(flags)) >> 3
}

// eightDigits returns the value of the eight decimal digits in x, the
// most significant in the low byte; a zero byte reads as a 0 digit. It
// folds neighbouring digits, then pairs, then quads, with one multiply
// each.
func eightDigits(x uint64) uint64 {
	x = (x & 0x0f0f0f0f0f0f0f0f) * (10<<8 + 1) >> 8
	x = (x & 0x00ff00ff00ff00ff) * (100<<16 + 1) >> 16
	return (x & 0x0000ffff0000ffff) * (10000<<32 + 1) >> 32
}

// scanInt scans a JSON integer with optional leading minus.
func scanInt(b []byte, i, k int) (int64, int, error) {
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	v, i, err := scanUint(b, i, k)
	if err != nil {
		return 0, i, err
	}
	if neg {
		if v > 1<<63 {
			return 0, i, parseErr("%q overflows int64", keyNames[k])
		}
		return -int64(v), i, nil
	}
	if v > 1<<63-1 {
		return 0, i, parseErr("%q overflows int64", keyNames[k])
	}
	return int64(v), i, nil
}

// scanHexString scans a JSON string of the form "0x<hex>" (the schema's
// pc/addr encoding) into a uint64.
func scanHexString(b []byte, i, k int) (uint64, int, error) {
	body, next, err := scanString(b, i)
	if err != nil {
		return 0, next, err
	}
	if len(body) < 3 || body[0] != '0' || body[1] != 'x' {
		return 0, next, parseErr("%q value %q not hex (want 0x prefix)", keyNames[k], body)
	}
	var v uint64
	for j, c := range body[2:] {
		d := hexVal[c]
		if d > 0xf {
			return 0, next, parseErr("%q value %q not hex", keyNames[k], body)
		}
		// Sixteen digits always fit.
		if j >= 16 && v > 1<<60-1 {
			return 0, next, parseErr("%q value %q overflows uint64", keyNames[k], body)
		}
		v = v<<4 | uint64(d)
	}
	return v, next, nil
}

// scanKind scans the kind value, "load" or "store", into Event.Store.
func scanKind(b []byte, i int) (store bool, next int, err error) {
	if len(b)-i >= 6 && string(b[i:i+6]) == `"load"` {
		return false, i + 6, nil
	}
	if len(b)-i >= 7 && string(b[i:i+7]) == `"store"` {
		return true, i + 7, nil
	}
	body, next, err := scanString(b, i)
	if err == nil {
		err = parseErr("kind %q, want \"load\" or \"store\"", body)
	}
	return false, next, err
}

func scanBool(b []byte, i, k int) (bool, int, error) {
	if len(b)-i >= 4 && string(b[i:i+4]) == "true" {
		return true, i + 4, nil
	}
	if len(b)-i >= 5 && string(b[i:i+5]) == "false" {
		return false, i + 5, nil
	}
	return false, i, parseErr("%q: expected true or false", keyNames[k])
}

// Validate applies the schema's semantic rules to a parsed event. The
// rules for v1 fields match what cmd/tracecheck has always enforced,
// plus the graduation-ordering check the old validator missed:
//
//   - all v1 fields present; level in 0..3; non-empty disasm;
//   - fetch ≤ issue ≤ complete ≤ graduate. Both timing cores emit a real
//     graduation cycle strictly after complete (in-order retires the
//     cycle after writeback; out-of-order graduates from the ROB after
//     completion), and neither ever emits a zero "absent" sentinel — so
//     graduate < complete is always corruption, never a sentinel;
//   - trap requires level ≥ 2 (informing traps fire only on misses);
//   - v2 pairing: addr and kind appear together or not at all, and only
//     on memory events (level ≥ 1). Events without them stay valid (v1
//     compatibility) but are not replayable.
func (e *Event) Validate() error {
	if miss := requiredFields &^ e.Fields; miss != 0 {
		return fmt.Errorf("trace: missing required field %s", keyNames[bits.TrailingZeros32(miss)])
	}
	if len(e.Disasm) == 0 {
		return errors.New("trace: empty disasm")
	}
	if e.Level < 0 || e.Level > 3 {
		return fmt.Errorf("trace: level %d out of range [0,3]", e.Level)
	}
	if e.Issue < e.Fetch {
		return fmt.Errorf("trace: issue %d before fetch %d", e.Issue, e.Fetch)
	}
	if e.Complete < e.Issue {
		return fmt.Errorf("trace: complete %d before issue %d", e.Complete, e.Issue)
	}
	if e.Graduate < e.Complete {
		return fmt.Errorf("trace: graduate %d before complete %d", e.Graduate, e.Complete)
	}
	if e.Trap && e.Level < 2 {
		return fmt.Errorf("trace: trap on level %d (traps fire on misses only)", e.Level)
	}
	if e.Has(FieldAddr) != e.Has(FieldKind) {
		return errors.New("trace: addr and kind must appear together")
	}
	if e.Has(FieldAddr) && e.Level == 0 {
		return errors.New("trace: addr/kind on a non-memory event (level 0)")
	}
	return nil
}
