package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"

	"informing/internal/stats"
)

func ev(seq uint64) stats.TraceEvent {
	return stats.TraceEvent{Seq: seq, PC: 0x1000 + 4*seq, Disasm: "nop",
		Fetch: int64(seq), Issue: int64(seq) + 1, Complete: int64(seq) + 2, Graduate: int64(seq) + 3}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf, 2)
	for i := uint64(0); i < 6; i++ {
		s.Emit(ev(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			Seq uint64 `json:"seq"`
			PC  string `json:"pc"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if !strings.HasPrefix(line.PC, "0x") {
			t.Errorf("pc %q not hex-formatted", line.PC)
		}
		seqs = append(seqs, line.Seq)
	}
	want := []uint64{1, 3, 5}
	if len(seqs) != len(want) {
		t.Fatalf("seqs %v, want %v", seqs, want)
	}
	for i := range seqs {
		if seqs[i] != want[i] {
			t.Fatalf("seqs %v, want %v", seqs, want)
		}
	}
}

// The abort-flush property: events buffered before a mid-run Flush are
// complete lines on the underlying writer — a run killed after Flush
// leaves well-formed partial JSONL behind, never a torn line.
func TestJSONLSinkFlushMidRun(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf, 1)
	for i := uint64(0); i < 100; i++ {
		s.Emit(ev(i))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("partial trace has malformed line: %q", line)
		}
		n++
	}
	if n != 100 {
		t.Errorf("flushed %d lines, want 100", n)
	}
	// Emitting after Flush then Closing appends the rest.
	s.Emit(ev(100))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 101 {
		t.Errorf("final trace has %d lines, want 101", got)
	}
}

type closeCounter struct {
	bytes.Buffer
	closed int
}

func (c *closeCounter) Close() error { c.closed++; return nil }

func TestJSONLSinkCloseIdempotentAndClosesUnder(t *testing.T) {
	var cc closeCounter
	s := NewJSONL(&cc, 1)
	s.Emit(ev(0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if cc.closed != 1 {
		t.Errorf("underlying writer closed %d times, want 1", cc.closed)
	}
	before := cc.Len()
	s.Emit(ev(1)) // after Close: dropped, not a panic or a write
	if cc.Len() != before {
		t.Error("Emit after Close wrote data")
	}
}

type failWriter struct{ err error }

func (f *failWriter) Write(p []byte) (int, error) { return 0, f.err }

func TestJSONLSinkStickyWriteError(t *testing.T) {
	werr := errors.New("disk full")
	s := NewJSONL(&failWriter{err: werr}, 1)
	// Overflow the 64 KB buffer so a write actually reaches the writer.
	big := ev(0)
	big.Disasm = strings.Repeat("x", 1<<10)
	for i := 0; i < 100; i++ {
		s.Emit(big)
	}
	if err := s.Flush(); !errors.Is(err, werr) {
		t.Errorf("Flush error = %v, want wrapped %v", err, werr)
	}
}

// TestAppendTraceJSONMatchesEncodingJSON pins the hand-rolled line encoder
// to the traceJSON schema struct: for every event — including disassembly
// text with quotes, backslashes, control characters and invalid UTF-8 —
// the appended bytes must decode to the same struct encoding/json would
// have produced, and must themselves be what encoding/json emits whenever
// the text needs no escaping beyond the standard set.
func TestAppendTraceJSONMatchesEncodingJSON(t *testing.T) {
	events := []stats.TraceEvent{
		{Seq: 0, PC: 0, Disasm: "nop"},
		{Seq: 7, PC: 0x1030, Disasm: "addi r2, r2, 512",
			Fetch: 34, Issue: 37, Complete: 38, Graduate: 93},
		{Seq: 1 << 40, PC: 0xdeadbeef, Disasm: `say "hi" \ there`,
			Fetch: -1, Issue: 2, Complete: 3, Graduate: 4, MemLevel: 3,
			Addr: 0x20c0ffee, Trap: true},
		{Seq: 2, PC: 4, Disasm: "tab\tnl\nctl\x01end", MemLevel: 1, Addr: 0x2000},
		{Seq: 3, PC: 8, Disasm: "bad\xffutf8 oké"},
		// Schema v2: a store and a multiprocessor (tid > 0) reference.
		{Seq: 4, PC: 0x100c, Disasm: "st r1, 0(r2)",
			Fetch: 1, Issue: 2, Complete: 3, Graduate: 5, MemLevel: 2,
			Addr: 0x3008, Store: true},
		{Seq: 5, PC: 0x1010, Disasm: "ld r3, 8(r4)",
			Fetch: 2, Issue: 3, Complete: 4, Graduate: 6, MemLevel: 1,
			Addr: 0x4010, Tid: 3},
		// Store/Addr on a non-memory event must not leak onto the wire.
		{Seq: 6, PC: 0x1014, Disasm: "add r1, r2, r3", Addr: 0xbad, Store: true},
	}
	for _, e := range events {
		got := string(appendTraceJSON(nil, &e))
		var dec traceJSON
		if err := json.Unmarshal([]byte(got), &dec); err != nil {
			t.Fatalf("seq %d: encoder output does not parse: %v\n%s", e.Seq, err, got)
		}
		want := traceJSON{
			Seq: e.Seq, PC: "0x" + strconv.FormatUint(e.PC, 16),
			Disasm: strings.ToValidUTF8(e.Disasm, "�"),
			Fetch:  e.Fetch, Issue: e.Issue, Complete: e.Complete,
			Graduate: e.Graduate, Level: e.MemLevel, Trap: e.Trap,
		}
		if e.MemLevel > 0 {
			want.Addr = "0x" + strconv.FormatUint(e.Addr, 16)
			want.Kind = "load"
			if e.Store {
				want.Kind = "store"
			}
		}
		if e.Tid > 0 {
			want.Tid = e.Tid
		}
		if dec != want {
			t.Errorf("seq %d: decoded %+v, want %+v", e.Seq, dec, want)
		}
		ref, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.ContainsAny(e.Disasm, "\x01\xff") && got != string(ref) {
			t.Errorf("seq %d: encoder bytes differ from encoding/json:\n got %s\nwant %s", e.Seq, got, ref)
		}
	}
}

func BenchmarkJSONLEmit(b *testing.B) {
	s := NewJSONL(io.Discard, 1)
	e := ev(7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Emit(e)
	}
}
