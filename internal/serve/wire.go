package serve

// The cells wire codec: the one decoder of {"cells":[Request...]} bodies
// (POST /v1/simulate and /v1/explain, forwarded cluster hops included) and
// the encoder of the hop body. A trace upload carries up to MaxTraceBytes
// of JSONL as one escaped string, and encoding/json scans such a body
// twice and re-escapes it for every hop; this codec reads it once,
// unescaping strings in place.
//
// Contract (DESIGN.md §12 "Wire codec"): every body that encoding/json
// with DisallowUnknownFields accepts into a SimulateRequest decodes to the
// identical []Request, and every body it rejects is rejected, with two
// deliberate exceptions that are rejected here although encoding/json
// accepts them: data after the top-level value, and a key repeated in one
// object (case-folded, as keys are matched). FuzzDecodeCells holds the
// codec to encoding/json, and a reflection test fails when Request gains a
// field the codec does not know.

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Request field numbers, in struct order.
const (
	fieldKind = iota
	fieldBenchmark
	fieldPlan
	fieldPolicy
	fieldMachine
	fieldScale
	fieldMaxInsts
	fieldApp
	fieldScheme
	fieldProcessors
	fieldMaxRefs
	fieldSource
	fieldTrace
	fieldAllowSampled
)

// requestKeys are Request's JSON keys (its struct tags) by field number.
var requestKeys = []string{
	fieldKind:         "kind",
	fieldBenchmark:    "benchmark",
	fieldPlan:         "plan",
	fieldPolicy:       "policy",
	fieldMachine:      "machine",
	fieldScale:        "scale",
	fieldMaxInsts:     "maxinsts",
	fieldApp:          "app",
	fieldScheme:       "scheme",
	fieldProcessors:   "processors",
	fieldMaxRefs:      "maxrefs",
	fieldSource:       "source",
	fieldTrace:        "trace",
	fieldAllowSampled: "allowsampled",
}

var cellsKeys = []string{"cells"}

// plainByte marks the string bytes that stand for themselves: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// decodeCells decodes a {"cells":[...]} body. Strings are unescaped in
// place, so body is overwritten. An absent or null "cells" gives nil, an
// empty array a non-nil empty slice, as encoding/json gives them.
func decodeCells(body []byte) ([]Request, error) {
	d := cellsDecoder{buf: body}
	d.ws()
	if d.i == len(d.buf) {
		return nil, errors.New("empty body")
	}
	var cells []Request
	if !d.null() {
		err := d.object(cellsKeys, func(int) error {
			if !d.consume('[') {
				return d.errorf(`"cells" is not an array`)
			}
			cells = []Request{}
			d.ws()
			if d.consume(']') {
				return nil
			}
			for {
				cells = append(cells, Request{})
				d.ws()
				if !d.null() {
					if err := d.request(&cells[len(cells)-1]); err != nil {
						return err
					}
				}
				d.ws()
				if d.consume(']') {
					return nil
				}
				if !d.consume(',') {
					return d.errorf("expected ',' or ']' after array element")
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	d.ws()
	if d.i != len(d.buf) {
		return nil, d.errorf("data after the top-level value")
	}
	return cells, nil
}

type cellsDecoder struct {
	buf []byte
	i   int
}

func (d *cellsDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

func (d *cellsDecoder) ws() {
	for d.i < len(d.buf) {
		switch d.buf[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *cellsDecoder) consume(c byte) bool {
	if d.i < len(d.buf) && d.buf[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *cellsDecoder) literal(lit string) bool {
	if len(d.buf)-d.i >= len(lit) && string(d.buf[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// null consumes a null literal. A null value leaves its field untouched,
// as encoding/json leaves it.
func (d *cellsDecoder) null() bool { return d.literal("null") }

// object decodes an object whose keys must name one of keys, matched as
// encoding/json matches struct fields: exactly, else under
// bytes.EqualFold. value decodes each non-null value, called with the
// key's index once d.i is at the value. Unknown and repeated keys are
// errors.
func (d *cellsDecoder) object(keys []string, value func(f int) error) error {
	if !d.consume('{') {
		return d.errorf("expected an object")
	}
	d.ws()
	if d.consume('}') {
		return nil
	}
	var seen uint32
	for {
		d.ws()
		if !d.consume('"') {
			return d.errorf("expected an object key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		f := matchKey(keys, key)
		if f < 0 {
			return d.errorf("unknown field %q", key)
		}
		if seen&(1<<f) != 0 {
			return d.errorf("duplicate field %q", keys[f])
		}
		seen |= 1 << f
		d.ws()
		if !d.consume(':') {
			return d.errorf("expected ':' after object key")
		}
		d.ws()
		if !d.null() {
			if err := value(f); err != nil {
				return err
			}
		}
		d.ws()
		if d.consume('}') {
			return nil
		}
		if !d.consume(',') {
			return d.errorf("expected ',' or '}' after object value")
		}
	}
}

func matchKey(keys []string, key []byte) int {
	for f, k := range keys {
		if string(key) == k {
			return f
		}
	}
	for f, k := range keys {
		if bytes.EqualFold(key, []byte(k)) {
			return f
		}
	}
	return -1
}

func (d *cellsDecoder) request(r *Request) error {
	return d.object(requestKeys, func(f int) error {
		var err error
		switch f {
		case fieldKind:
			r.Kind, err = d.stringValue()
		case fieldBenchmark:
			r.Benchmark, err = d.stringValue()
		case fieldPlan:
			r.Plan, err = d.stringValue()
		case fieldPolicy:
			r.Policy, err = d.stringValue()
		case fieldMachine:
			r.Machine, err = d.stringValue()
		case fieldScale:
			r.Scale, err = d.intValue(64)
		case fieldMaxInsts:
			r.MaxInsts, err = d.uintValue()
		case fieldApp:
			r.App, err = d.stringValue()
		case fieldScheme:
			r.Scheme, err = d.stringValue()
		case fieldProcessors:
			var n int64
			n, err = d.intValue(strconv.IntSize)
			r.Processors = int(n)
		case fieldMaxRefs:
			r.MaxRefs, err = d.uintValue()
		case fieldSource:
			r.Source, err = d.stringValue()
		case fieldTrace:
			r.Trace, err = d.stringValue()
		case fieldAllowSampled:
			r.AllowSampled, err = d.boolValue()
		}
		return err
	})
}

func (d *cellsDecoder) stringValue() (string, error) {
	if !d.consume('"') {
		return "", d.errorf("expected a string")
	}
	b, err := d.str()
	return string(b), err
}

func (d *cellsDecoder) boolValue() (bool, error) {
	switch {
	case d.literal("true"):
		return true, nil
	case d.literal("false"):
		return false, nil
	}
	return false, d.errorf("expected a boolean")
}

// intValue and uintValue convert a number literal exactly as encoding/json does:
// strconv on the literal, so fractions, exponents, out-of-range values and
// (for uint) a minus sign are errors, while -0 is a valid int.
func (d *cellsDecoder) intValue(bits int) (int64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		return 0, d.errorf("cannot decode number %s into an int%d", lit, bits)
	}
	return n, nil
}

func (d *cellsDecoder) uintValue() (uint64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		return 0, d.errorf("cannot decode number %s into a uint64", lit)
	}
	return n, nil
}

// number scans a literal of the JSON number grammar.
func (d *cellsDecoder) number() ([]byte, error) {
	b, start := d.buf, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, d.errorf("expected a number")
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, d.errorf("malformed number")
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, d.errorf("malformed number")
		}
		i = j
	}
	d.i = i
	return b[start:i], nil
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// str decodes the string whose opening quote has been consumed. The
// result overwrites the escaped form in d.buf: every escape is at least as
// long as the UTF-8 it stands for, so the write position never passes the
// read position. The one exception is an invalid UTF-8 byte, which becomes
// the 3-byte U+FFFD as in encoding/json; from the first one that would
// pass the read position, the rest of the string goes to a fresh buffer.
func (d *cellsDecoder) str() ([]byte, error) {
	buf, start := d.buf, d.i
	r := start
	for r < len(buf) && plainByte[buf[r]] {
		r++
	}
	out := buf[start:r] // appends write in place until inPlace is cleared
	inPlace := true
	for r < len(buf) {
		switch c := buf[r]; {
		case plainByte[c]:
			out = append(out, c)
			r++
		case c == '"':
			d.i = r + 1
			return out, nil
		case c == '\\' && r+1 < len(buf) && buf[r+1] == '"':
			// The one escape a JSONL trace is full of.
			out = append(out, '"')
			r += 2
		case c == '\\':
			var n int
			var err error
			if out, n, err = d.escape(out, r); err != nil {
				return nil, err
			}
			r += n
		case c < 0x20:
			d.i = r
			return nil, d.errorf("control character %#02x in string", c)
		default:
			rr, size := utf8.DecodeRune(buf[r:])
			if rr != utf8.RuneError || size != 1 {
				out = append(out, buf[r:r+size]...)
				r += size
				continue
			}
			if inPlace && start+len(out)+len("\uFFFD") > r+1 {
				out = out[:len(out):len(out)] // the next append copies out
				inPlace = false
			}
			out = utf8.AppendRune(out, utf8.RuneError)
			r++
		}
	}
	d.i = r
	return nil, d.errorf("unterminated string")
}

// escape appends what the escape sequence at d.buf[r] stands for to out
// and returns the sequence's length. A \u escape of a UTF-16 surrogate
// joins the \u escape after it when the two form a pair and is U+FFFD
// otherwise, as in encoding/json.
func (d *cellsDecoder) escape(out []byte, r int) ([]byte, int, error) {
	buf := d.buf
	if r+1 >= len(buf) {
		d.i = r
		return nil, 0, d.errorf("unterminated string")
	}
	var c byte
	switch e := buf[r+1]; e {
	case '"', '\\', '/':
		c = e
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		rr := hex4(buf[r:])
		if rr < 0 {
			d.i = r
			return nil, 0, d.errorf(`malformed \u escape`)
		}
		n := 6
		if utf16.IsSurrogate(rr) {
			if pair := utf16.DecodeRune(rr, hex4(buf[r+6:])); pair != unicode.ReplacementChar {
				rr, n = pair, 12
			} else {
				rr = unicode.ReplacementChar
			}
		}
		return utf8.AppendRune(out, rr), n, nil
	default:
		d.i = r
		return nil, 0, d.errorf("invalid escape %q", buf[r:r+2])
	}
	return append(out, c), 2, nil
}

// hex4 returns the code unit of the \uXXXX escape b starts with, or -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// appendCells appends the {"cells":[...]} body of cells: keys in struct
// order, zero values omitted as omitempty omits them. Only the quote, the
// backslash and control characters are escaped; any other byte goes out
// as it is, and both decoders read it back as the same string.
func appendCells(b []byte, cells []Request) []byte {
	b = append(b, `{"cells":[`...)
	for i := range cells {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRequest(b, &cells[i])
	}
	return append(b, "]}"...)
}

func appendRequest(b []byte, r *Request) []byte {
	b = append(b, `{"kind":`...)
	b = appendString(b, r.Kind)
	b = appendStringField(b, fieldBenchmark, r.Benchmark)
	b = appendStringField(b, fieldPlan, r.Plan)
	b = appendStringField(b, fieldPolicy, r.Policy)
	b = appendStringField(b, fieldMachine, r.Machine)
	if r.Scale != 0 {
		b = strconv.AppendInt(appendKey(b, fieldScale), r.Scale, 10)
	}
	if r.MaxInsts != 0 {
		b = strconv.AppendUint(appendKey(b, fieldMaxInsts), r.MaxInsts, 10)
	}
	b = appendStringField(b, fieldApp, r.App)
	b = appendStringField(b, fieldScheme, r.Scheme)
	if r.Processors != 0 {
		b = strconv.AppendInt(appendKey(b, fieldProcessors), int64(r.Processors), 10)
	}
	if r.MaxRefs != 0 {
		b = strconv.AppendUint(appendKey(b, fieldMaxRefs), r.MaxRefs, 10)
	}
	b = appendStringField(b, fieldSource, r.Source)
	b = appendStringField(b, fieldTrace, r.Trace)
	if r.AllowSampled {
		b = append(appendKey(b, fieldAllowSampled), "true"...)
	}
	return append(b, '}')
}

func appendKey(b []byte, f int) []byte {
	b = append(b, ',', '"')
	b = append(b, requestKeys[f]...)
	return append(b, '"', ':')
}

func appendStringField(b []byte, f int, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(appendKey(b, f), s)
}

func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 0x20 && c != '"' && c != '\\':
			b = append(b, c)
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c == '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(b, '"')
}
