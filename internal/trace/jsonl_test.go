package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const goodV1 = `{"seq":0,"pc":"0x1000","disasm":"ld r1, 0(r2)","fetch":1,"issue":2,"complete":5,"graduate":6,"level":2,"trap":false}`
const goodV2 = `{"seq":1,"pc":"0x1004","disasm":"st r3, 8(r4)","fetch":2,"issue":3,"complete":6,"graduate":7,"level":3,"addr":"0x20c0","kind":"store","tid":2,"trap":true}`

func mustParse(t *testing.T, line string) Event {
	t.Helper()
	var ev Event
	if err := ParseLine([]byte(line), &ev); err != nil {
		t.Fatalf("ParseLine(%s): %v", line, err)
	}
	return ev
}

func TestParseLineV1AndV2(t *testing.T) {
	v1 := mustParse(t, goodV1)
	if v1.Seq != 0 || v1.PC != 0x1000 || v1.Level != 2 || v1.Trap || v1.Has(FieldAddr) {
		t.Errorf("v1 parsed wrong: %+v", v1)
	}
	if err := v1.Validate(); err != nil {
		t.Errorf("v1 Validate: %v", err)
	}
	if v1.Replayable() {
		// A v1 memory event has no addr: validates, but not replayable.
		t.Error("Replayable() true for a memory event without addr")
	}

	v2 := mustParse(t, goodV2)
	if v2.Addr != 0x20c0 || !v2.Store || v2.Tid != 2 || !v2.Trap || !v2.Has(FieldAddr) {
		t.Errorf("v2 parsed wrong: %+v", v2)
	}
	if err := v2.Validate(); err != nil {
		t.Errorf("v2 Validate: %v", err)
	}
	if string(v2.Disasm) != "st r3, 8(r4)" {
		t.Errorf("disasm = %q", v2.Disasm)
	}
}

// fix rewrites one key's raw value in a known-good line, building the
// violation corpus without hand-writing whole lines.
func fix(line, key, rawValue string) string {
	i := strings.Index(line, `"`+key+`":`)
	if i < 0 {
		panic("no key " + key)
	}
	start := i + len(key) + 3
	end := start
	depth := 0
	for ; end < len(line); end++ {
		c := line[end]
		if c == '"' {
			depth ^= 1
		}
		if depth == 0 && (c == ',' || c == '}') {
			break
		}
	}
	return line[:start] + rawValue + line[end:]
}

func TestParseLineRejects(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"not json":         "ld r1, 0(r2)",
		"torn line":        goodV1[:40],
		"trailing garbage": goodV1 + "x",
		"second object":    goodV1 + goodV1,
		"unknown key":      fix(goodV1, "trap", `false,"bogus":1`),
		"duplicate key":    fix(goodV1, "trap", `false,"seq":9`),
		"non-hex pc":       fix(goodV1, "pc", `"4096"`),
		"pc not string":    fix(goodV1, "pc", `4096`),
		"float seq":        fix(goodV1, "seq", `1.5`),
		"exponent fetch":   fix(goodV1, "fetch", `1e3`),
		"leading zero":     fix(goodV1, "seq", `01`),
		"negative seq":     fix(goodV1, "seq", `-1`),
		"bad kind":         fix(goodV2, "kind", `"move"`),
		"addr not hex":     fix(goodV2, "addr", `"8384"`),
		"negative tid":     fix(goodV2, "tid", `-2`),
		"trap not bool":    fix(goodV1, "trap", `"false"`),
		"bad escape":       fix(goodV1, "disasm", `"bad \q esc"`),
		"raw control char": fix(goodV1, "disasm", "\"nl\nin string\""),
		"unterminated":     fix(goodV1, "disasm", `"open`),
		"seq overflow":     fix(goodV1, "seq", `99999999999999999999`),
		"addr overflow":    fix(goodV2, "addr", `"0x10000000000000000"`),
		"missing colon":    strings.Replace(goodV1, `"seq":`, `"seq" `, 1),
		"array value":      fix(goodV1, "level", `[2]`),
		"object value":     fix(goodV1, "level", `{"v":2}`),
		"null disasm":      fix(goodV1, "disasm", `null`),
		// encoding/json accepts both; the encoder never writes either.
		"case-folded key": strings.Replace(goodV1, `"seq":`, `"SEQ":`, 1),
		"escaped key":     strings.Replace(goodV1, `"seq":`, `"s`+"\\"+`u0065q":`, 1),
	}
	var ev Event
	for name, line := range cases {
		if err := ParseLine([]byte(line), &ev); err == nil {
			t.Errorf("%s: ParseLine accepted %s", name, line)
		} else if !errors.Is(err, ErrParse) {
			t.Errorf("%s: error not wrapping ErrParse: %v", name, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"missing seq":           strings.Replace(goodV1, `"seq":0,`, ``, 1),
		"missing trap":          strings.Replace(goodV1, `,"trap":false`, ``, 1),
		"empty disasm":          fix(goodV1, "disasm", `""`),
		"level out of range":    fix(goodV1, "level", `4`),
		"issue before fetch":    fix(goodV1, "issue", `0`),
		"complete before issue": fix(goodV1, "complete", `1`),
		// The satellite bugfix: the old validator accepted these.
		"graduate before complete": fix(goodV1, "graduate", `4`),
		"graduate zero on late op": fix(goodV1, "graduate", `0`),
		"trap on l1":               fix(goodV2, "level", `1`),
		"addr without kind":        strings.Replace(goodV2, `,"kind":"store"`, ``, 1),
		"kind without addr":        strings.Replace(goodV2, `,"addr":"0x20c0"`, ``, 1),
		"addr on non-memory":       fix(strings.Replace(goodV1, `"level":2`, `"level":0`, 1), "trap", `false,"addr":"0x10","kind":"load"`),
	}
	var ev Event
	for name, line := range cases {
		if err := ParseLine([]byte(line), &ev); err != nil {
			t.Errorf("%s: ParseLine rejected (want Validate to): %v", name, err)
			continue
		}
		if err := ev.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %s", name, line)
		}
	}
}

// jsonMirror is the encoding/json view of a line, pointer-typed so the
// differential can see which keys appeared.
type jsonMirror struct {
	Seq      *uint64 `json:"seq"`
	PC       *string `json:"pc"`
	Disasm   *string `json:"disasm"`
	Fetch    *int64  `json:"fetch"`
	Issue    *int64  `json:"issue"`
	Complete *int64  `json:"complete"`
	Graduate *int64  `json:"graduate"`
	Level    *int    `json:"level"`
	Addr     *string `json:"addr"`
	Kind     *string `json:"kind"`
	Tid      *int    `json:"tid"`
	Trap     *bool   `json:"trap"`
}

// decodeJSON decodes line as a strict json.Decoder does and returns what
// follows the first value.
func decodeJSON(line []byte) (m jsonMirror, rest []byte, err error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err = dec.Decode(&m); err != nil {
		return m, nil, err
	}
	return m, line[dec.InputOffset():], nil
}

// jsonWS trims JSON whitespace (which bytes.TrimSpace does not match).
func jsonWS(b []byte) []byte { return bytes.TrimLeft(b, " \t\r\n") }

// jsonHex reads the schema's "0x<hex>" spelling of pc and addr.
func jsonHex(s string) (uint64, bool) {
	if !strings.HasPrefix(s, "0x") {
		return 0, false
	}
	v, err := strconv.ParseUint(s[2:], 16, 64)
	return v, err == nil
}

// eventFromJSON builds the Event ParseLine must produce from encoding/json's
// decoding of the same line, with Disasm unquoted into disasm instead.
func eventFromJSON(m jsonMirror) (ev Event, disasm string, err error) {
	set := func(f uint32, present bool) bool {
		if present {
			ev.Fields |= f
		}
		return present
	}
	var ok bool
	if set(FieldSeq, m.Seq != nil) {
		ev.Seq = *m.Seq
	}
	if set(FieldPC, m.PC != nil) {
		if ev.PC, ok = jsonHex(*m.PC); !ok {
			return ev, "", fmt.Errorf("pc %q is not schema hex", *m.PC)
		}
	}
	if set(FieldDisasm, m.Disasm != nil) {
		disasm = *m.Disasm
	}
	if set(FieldFetch, m.Fetch != nil) {
		ev.Fetch = *m.Fetch
	}
	if set(FieldIssue, m.Issue != nil) {
		ev.Issue = *m.Issue
	}
	if set(FieldComplete, m.Complete != nil) {
		ev.Complete = *m.Complete
	}
	if set(FieldGraduate, m.Graduate != nil) {
		ev.Graduate = *m.Graduate
	}
	if set(FieldLevel, m.Level != nil) {
		ev.Level = *m.Level
	}
	if set(FieldAddr, m.Addr != nil) {
		if ev.Addr, ok = jsonHex(*m.Addr); !ok {
			return ev, "", fmt.Errorf("addr %q is not schema hex", *m.Addr)
		}
	}
	if set(FieldKind, m.Kind != nil) {
		if *m.Kind != "load" && *m.Kind != "store" {
			return ev, "", fmt.Errorf("kind %q", *m.Kind)
		}
		ev.Store = *m.Kind == "store"
	}
	if set(FieldTid, m.Tid != nil) {
		ev.Tid = *m.Tid
	}
	if set(FieldTrap, m.Trap != nil) {
		ev.Trap = *m.Trap
	}
	return ev, disasm, nil
}

// A jsonMember is one "key":value member of a line's object, as raw
// bytes and as encoding/json's tokens.
type jsonMember struct {
	rawKey, rawVal []byte
	key            string
	val            json.Token
}

// jsonMembers splits a line holding one flat JSON object into its
// members with encoding/json's tokenizer, so that the tests that use it
// depend on no code of the parser under test. It also returns the bytes
// after the object. A line holding null, or not an object of scalars,
// is an error.
func jsonMembers(line []byte) (ms []jsonMember, rest []byte, err error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, nil, fmt.Errorf("not an object: %v %v", tok, err)
	}
	token := func() (raw []byte, tok json.Token, err error) {
		start := dec.InputOffset()
		if tok, err = dec.Token(); err != nil {
			return nil, nil, err
		}
		// Token consumes the separator before its token: trim it.
		return bytes.TrimLeft(line[start:dec.InputOffset()], " \t\r\n,:"), tok, nil
	}
	for dec.More() {
		var m jsonMember
		var key json.Token
		if m.rawKey, key, err = token(); err != nil {
			return nil, nil, err
		}
		m.key = key.(string)
		if m.rawVal, m.val, err = token(); err != nil {
			return nil, nil, err
		}
		if _, nested := m.val.(json.Delim); nested {
			return nil, nil, fmt.Errorf("value of %q is not a scalar", m.key)
		}
		ms = append(ms, m)
	}
	if _, err := dec.Token(); err != nil {
		return nil, nil, err
	}
	return ms, line[dec.InputOffset():], nil
}

// schemaValue reports whether a raw value has the form the schema gives
// its key. Only pc, addr, kind and tid are narrower than their JSON type.
func schemaValue(key string, raw []byte) bool {
	switch key {
	case "pc", "addr":
		if len(raw) < 2 || raw[0] != '"' || raw[len(raw)-1] != '"' || bytes.IndexByte(raw, '\\') >= 0 {
			return false
		}
		_, ok := jsonHex(string(raw[1 : len(raw)-1]))
		return ok
	case "kind":
		return string(raw) == `"load"` || string(raw) == `"store"`
	case "tid":
		v, err := strconv.ParseUint(string(raw), 10, 64)
		return err == nil && v <= 1<<20
	}
	return true
}

// stricterRule names the documented rule under which ParseLine rejects a
// line that encoding/json accepts, or returns "" when none applies. It
// reads the line with encoding/json's tokenizer, not with the parser.
func stricterRule(line []byte) string {
	if tok, err := json.NewDecoder(bytes.NewReader(line)).Token(); err == nil && tok == nil {
		return "null value"
	}
	ms, rest, err := jsonMembers(line)
	if err != nil {
		return ""
	}
	seen := map[string]bool{}
	for _, m := range ms {
		switch {
		case bytes.IndexByte(m.rawKey, '\\') >= 0:
			return "escaped key"
		case !slices.Contains(keyNames[:], m.key):
			return "case-folded key"
		case seen[m.key]:
			return "duplicate key"
		case m.val == nil:
			return "null value"
		case !schemaValue(m.key, m.rawVal):
			return "schema value"
		}
		seen[m.key] = true
	}
	if len(jsonWS(rest)) > 0 {
		return "trailing data"
	}
	return ""
}

// checkAgainstJSON holds ParseLine to encoding/json on one line. An
// accepted line must decode under a strict json.Decoder to the same
// value in every field, hit none of the stricter rules and have nothing
// after the object; the event ParseLine built is returned. A rejected
// line must be rejected by encoding/json too or hit a stricter rule.
func checkAgainstJSON(t *testing.T, line []byte) (ev Event, accepted bool) {
	t.Helper()
	// Parse over the event of another line: the fields of keys this line
	// does not carry must come out zero.
	ev = Event{1, 1, []byte("x"), 1, 1, 1, 1, 1, 1, true, 1, true, ^uint32(0)}
	perr := ParseLine(line, &ev)
	m, rest, jerr := decodeJSON(line)
	if perr != nil {
		if !errors.Is(perr, ErrParse) {
			t.Errorf("error not wrapping ErrParse (%v): %q", perr, line)
		}
		if jerr == nil && stricterRule(line) == "" {
			t.Errorf("parser rejected (%v), encoding/json accepted, and no stricter rule applies: %q", perr, line)
		}
		return ev, false
	}
	if jerr != nil {
		t.Errorf("parser accepted, encoding/json rejected (%v): %q", jerr, line)
		return ev, true
	}
	if rule := stricterRule(line); rule != "" {
		t.Errorf("parser accepted a line under the stricter rule %q: %q", rule, line)
	}
	want, disasm, err := eventFromJSON(m)
	if err != nil {
		t.Errorf("parser accepted a line whose %v: %q", err, line)
		return ev, true
	}
	got := ev
	if ev.Has(FieldDisasm) {
		var s string
		if err := json.Unmarshal([]byte(`"`+string(ev.Disasm)+`"`), &s); err != nil || s != disasm {
			t.Errorf("disasm %q unquotes to %q (%v), encoding/json %q: %q", ev.Disasm, s, err, disasm, line)
		}
		got.Disasm = nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parser %+v, encoding/json %+v: %q", got, want, line)
	}
	if len(jsonWS(rest)) > 0 {
		t.Errorf("parser accepted trailing data %q: %q", rest, line)
	}
	return ev, true
}

// checkReordered holds ParseLine's key-order hint to being only a hint:
// the members of an accepted line, permuted and re-spaced, parse to the
// identical Event.
func checkReordered(t *testing.T, line []byte, want Event) {
	t.Helper()
	ms, _, err := jsonMembers(line)
	if err != nil {
		t.Errorf("accepted line does not split into members (%v): %q", err, line)
		return
	}
	h := fnv.New64a()
	h.Write(line)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	spaces := []string{"", "", " ", "\t", "\r\n", "  "}
	ws := func() string { return spaces[rng.Intn(len(spaces))] }
	for round := 0; round < 4; round++ {
		var b strings.Builder
		b.WriteString(ws() + "{")
		for n, i := range rng.Perm(len(ms)) {
			if n > 0 {
				b.WriteString(ws() + ",")
			}
			b.WriteString(ws() + string(ms[i].rawKey) + ws() + ":" + ws() + string(ms[i].rawVal))
		}
		b.WriteString(ws() + "}" + ws())
		var got Event
		if err := ParseLine([]byte(b.String()), &got); err != nil {
			t.Errorf("reordered line rejected (%v): %q from %q", err, b.String(), line)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("reordered line parsed to %+v, original %+v: %q from %q", got, want, b.String(), line)
		}
	}
}

// TestParseLineDifferentialJSON pins the hand-rolled parser against
// encoding/json on every field (checkAgainstJSON), with rows at the
// edges of its integer and hex scanning, and holds every accepted row to
// the key-order property (checkReordered). FuzzParseLine runs the same
// checks on arbitrary lines.
func TestParseLineDifferentialJSON(t *testing.T) {
	lines := []string{
		goodV1, goodV2,
		`{"seq":3,"pc":"0xffffffffffffffff","disasm":"say \"hi\" \\ there A","fetch":-5,"issue":-1,"complete":0,"graduate":0,"level":0,"trap":false}`,
		"  { \"seq\" : 9 , \"pc\" : \"0x0\" , \"disasm\" : \"nop\" , \"fetch\" : 0 , \"issue\" : 0 , \"complete\" : 0 , \"graduate\" : 0 , \"level\" : 0 , \"trap\" : false }  ",
		`{"trap":true,"level":2,"graduate":9,"complete":8,"issue":7,"fetch":6,"disasm":"reordered","pc":"0x10","seq":4}`,
		`{}`,
		` { } `,
		`{"seq":1}`,
		fix(goodV1, "seq", `1.5`),
		fix(goodV1, "fetch", `1e3`),
		fix(goodV1, "seq", `01`),
		fix(goodV1, "trap", `"false"`),
		fix(goodV1, "disasm", `null`),
		fix(goodV1, "level", `[2]`),
		goodV1 + "x",
		goodV1 + "}",
		fix(goodV1, "trap", `false,"seq":9`),
		fix(goodV1, "trap", `false,"bogus":1`),
		"not json at all",
		"null",
		line(5, 1, 0x40, true, false),
		// The predicted key followed by whitespace, or by a longer name.
		strings.ReplaceAll(goodV2, `":`, `" :`),
		strings.ReplaceAll(goodV2, `":`, `": `),
		strings.ReplaceAll(line(5, 1, 0x40, true, false), `":`, `" :`),
		strings.Replace(goodV1, `"pc":`, `"pcs":`, 1),
		strings.Replace(goodV1, `"pc":`, `"pcs:`, 1),
		strings.Replace(goodV1, `"disasm":`, `"disasm2":`, 1),

		// Integers around the 8-digit word and the 19-digit unchecked run.
		fix(goodV1, "seq", `7`),
		fix(goodV1, "seq", `1234567`),
		fix(goodV1, "seq", `12345678`),
		fix(goodV1, "seq", `123456789`),
		fix(goodV1, "seq", `99999999`),
		fix(goodV1, "seq", `100000000`),
		fix(goodV1, "seq", `1234567890123456`),
		fix(goodV1, "seq", `9999999999999999`),
		fix(goodV1, "seq", `1234567890123456789`),
		fix(goodV1, "seq", `9999999999999999999`),
		fix(goodV1, "seq", `10000000000000000000`),
		fix(goodV1, "seq", `18446744073709551615`),
		fix(goodV1, "seq", `18446744073709551616`),
		fix(goodV1, "seq", `99999999999999999999`),
		fix(goodV1, "seq", `184467440737095516150`),
		fix(goodV1, "seq", `0`),
		fix(goodV1, "seq", `00`),
		fix(goodV1, "seq", `012345678`),
		fix(goodV1, "seq", `-0`),
		fix(goodV1, "fetch", `-0`),
		fix(goodV1, "fetch", `-01`),
		fix(goodV1, "fetch", `-12345678`),
		fix(goodV1, "fetch", `9223372036854775807`),
		fix(goodV1, "fetch", `9223372036854775808`),
		fix(goodV1, "fetch", `-9223372036854775808`),
		fix(goodV1, "fetch", `-9223372036854775809`),
		fix(goodV1, "fetch", `-`),
		fix(goodV1, "level", `-1`),
		fix(goodV1, "graduate", `1234567890123456`),
		`{"seq":12345678}`,
		`{"seq":1234567}`,
		`{"seq":123456789012345678901}`,

		// Hex around 16 digits.
		fix(goodV1, "pc", `"0x12345678"`),
		fix(goodV1, "pc", `"0xdeadBEEF"`),
		fix(goodV1, "pc", `"0x123456789abcdef0"`),
		fix(goodV1, "pc", `"0x0000000000000000ff"`),
		fix(goodV1, "pc", `"0x10000000000000000"`),
		fix(goodV1, "pc", `"0x"`),
		fix(goodV1, "pc", `"0X10"`),
		fix(goodV1, "pc", `"0x1g"`),
		fix(goodV1, "pc", "\"0x\\u0031\""),
		fix(goodV2, "addr", `"0xffffffffffffffff"`),
		fix(goodV2, "addr", `"0x00000000000000001"`),

		// Strings, kinds, tids and keys.
		fix(goodV1, "disasm", "\"a\\u00e9\\\"\\\\\\/\\b\\f\\n\\r\\t\""),
		fix(goodV1, "disasm", "\"\\ud800 lone\""),
		fix(goodV1, "disasm", "\"bad \xff utf8\""),
		fix(goodV1, "disasm", `""`),
		fix(goodV2, "kind", `"load"`),
		fix(goodV2, "kind", "\"lo\\u0061d\""),
		fix(goodV2, "kind", `"LOAD"`),
		fix(goodV2, "tid", `0`),
		fix(goodV2, "tid", `1048576`),
		fix(goodV2, "tid", `1048577`),
		fix(goodV2, "tid", `-1`),
		strings.Replace(goodV1, `"seq":`, `"SEQ":`, 1),
		strings.Replace(goodV1, `"seq":`, "\"s\\u0065q\":", 1),
		strings.Replace(goodV1, `"seq":`, "\"\xc5\xbfeq\":", 1), // U+017F folds to s in encoding/json
	}
	for _, line := range lines {
		if ev, ok := checkAgainstJSON(t, []byte(line)); ok {
			checkReordered(t, []byte(line), ev)
		}
	}
}

// FuzzParseLine holds ParseLine to encoding/json on arbitrary lines, over
// all twelve fields, and to the key-order property on every line it
// accepts. The committed corpus holds the first lines of both recorded
// benchmark traces, v1, tid, reordered and whitespace lines, and every
// TestParseLineRejects row.
func FuzzParseLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		if ev, ok := checkAgainstJSON(t, line); ok {
			checkReordered(t, line, ev)
		}
	})
}

// TestParseLineZeroAlloc is the allocation half of the tracecheck
// satellite fix: parsing and validating a line allocates nothing, so
// multi-GB traces validate without per-line garbage. The lines take the
// predicted key order, a mispredicted one (tid), the general key path
// throughout (reordered) and whitespace everywhere.
func TestParseLineZeroAlloc(t *testing.T) {
	for name, text := range map[string]string{
		"v1":        goodV1,
		"v2":        line(3, 2, 0x40, false, false),
		"tid":       goodV2,
		"reordered": `{"trap":true,"tid":2,"kind":"store","addr":"0x20c0","level":3,"graduate":7,"complete":6,"issue":3,"fetch":2,"disasm":"st r3, 8(r4)","pc":"0x1004","seq":1}`,
		"padded":    " {\t\"seq\" : 1 ,\"pc\":\r\n\"0x1004\" , \"disasm\":\"st\" ,\"fetch\": 2,\"issue\" :3 , \"complete\":6,\"graduate\":7 ,\"level\": 3,\"addr\":\"0x20c0\" ,\"kind\": \"store\",\"trap\":true } ",
	} {
		b := []byte(text)
		var ev Event
		allocs := testing.AllocsPerRun(1000, func() {
			if err := ParseLine(b, &ev); err != nil {
				t.Fatal(err)
			}
			if err := ev.Validate(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: ParseLine+Validate allocates %v per line, want 0", name, allocs)
		}
	}
}
