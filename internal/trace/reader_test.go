package trace

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"informing/internal/govern"
)

// line builds a schema-valid JSONL line for reader tests. level 0 means a
// non-memory event; addr/kind ride along for level > 0 unless v1 is set.
func line(seq uint64, level int, addr uint64, store bool, v1 bool) string {
	base := fmt.Sprintf(`{"seq":%d,"pc":"0x1000","disasm":"x","fetch":1,"issue":2,"complete":3,"graduate":4,"level":%d`, seq, level)
	if level > 0 && !v1 {
		kind := "load"
		if store {
			kind = "store"
		}
		base += fmt.Sprintf(`,"addr":"0x%x","kind":%q`, addr, kind)
	}
	return base + `,"trap":false}`
}

func traceText(lines ...string) string { return strings.Join(lines, "\n") + "\n" }

func joinTrace(lines ...string) io.Reader { return strings.NewReader(traceText(lines...)) }

// loadAndReplay runs Load and Replay over text; both must fail the same
// way, and a successful Load is returned.
func loadAndReplay(t *testing.T, text string, cfg ReaderConfig) (*Data, error) {
	t.Helper()
	d, err := Load(strings.NewReader(text), cfg)
	_, rerr := Replay(strings.NewReader(text), ReplayConfig{Hier: tinyHier(), Reader: cfg})
	if fmt.Sprint(err) != fmt.Sprint(rerr) {
		t.Fatalf("Load error %v, Replay error %v", err, rerr)
	}
	return d, err
}

func TestReaderSegmentsOnSeqReset(t *testing.T) {
	d, err := loadAndReplay(t, traceText(
		line(0, 0, 0, false, false),
		line(1, 1, 0x40, false, false),
		line(2, 0, 0, false, false),
		line(0, 0, 0, false, false), // concatenated second trace
		line(1, 2, 0x80, true, false),
	), ReaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.SegStart) != 2 || d.Events != 5 {
		t.Errorf("segments=%d events=%d, want 2/5", len(d.SegStart), d.Events)
	}
}

func TestReaderRefusesSampled(t *testing.T) {
	cases := map[string]string{
		// A -trace-sample 64 recording: first kept event has seq 63.
		"first seq nonzero": traceText(line(63, 1, 0x40, false, false)),
		// A gap inside a segment.
		"seq gap": traceText(
			line(0, 0, 0, false, false),
			line(1, 1, 0x40, false, false),
			line(3, 1, 0x80, false, false),
		),
		// A reset into a sampled tail.
		"gap in second segment": traceText(
			line(0, 0, 0, false, false),
			line(0, 0, 0, false, false),
			line(2, 0, 0, false, false),
		),
	}
	for name, text := range cases {
		if _, err := loadAndReplay(t, text, ReaderConfig{}); !errors.Is(err, ErrSampled) {
			t.Errorf("%s: err = %v, want ErrSampled", name, err)
		}
	}
}

func TestReaderAllowSampled(t *testing.T) {
	d, err := loadAndReplay(t, traceText(
		line(63, 1, 0x40, false, false),
		line(127, 1, 0x80, false, false),
	), ReaderConfig{AllowSampled: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Events != 2 {
		t.Errorf("events = %d, want 2", d.Events)
	}
}

func TestReaderFullTraceAccepted(t *testing.T) {
	var lines []string
	for i := 0; i < 100; i++ {
		lines = append(lines, line(uint64(i), i%4, uint64(0x40*i), i%2 == 0, false))
	}
	d, err := loadAndReplay(t, traceText(lines...), ReaderConfig{})
	if err != nil {
		t.Fatalf("full trace rejected: %v", err)
	}
	if len(d.SegStart) != 1 || d.Events != 100 {
		t.Errorf("segments=%d events=%d, want 1/100", len(d.SegStart), d.Events)
	}
}

func TestReaderRejectsEmptyLineMidTrace(t *testing.T) {
	_, err := loadAndReplay(t, line(0, 0, 0, false, false)+"\n\n"+line(1, 0, 0, false, false)+"\n", ReaderConfig{})
	if err == nil || err.Error() != "trace: line 2: empty line" {
		t.Errorf("err = %v, want empty-line rejection at line 2", err)
	}
}

func TestLoadExtractsRefsAndSegments(t *testing.T) {
	d, err := Load(joinTrace(
		line(0, 0, 0, false, false),
		line(1, 1, 0x40, false, false),
		line(2, 3, 0x80, true, false),
		line(0, 2, 0xc0, false, false), // second segment
	), ReaderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Events != 4 || len(d.Refs) != 3 || len(d.SegStart) != 2 {
		t.Fatalf("events=%d refs=%d segs=%d, want 4/3/2", d.Events, len(d.Refs), len(d.SegStart))
	}
	if d.SegStart[0] != 0 || d.SegStart[1] != 2 {
		t.Errorf("SegStart = %v, want [0 2]", d.SegStart)
	}
	if d.SegEvents[0] != 3 || d.SegEvents[1] != 1 {
		t.Errorf("SegEvents = %v, want [3 1]", d.SegEvents)
	}
	want := []Ref{
		{Addr: 0x40, Level: 1},
		{Addr: 0x80, Level: 3, Store: true},
		{Addr: 0xc0, Level: 2},
	}
	for i, r := range d.Refs {
		if r != want[i] {
			t.Errorf("ref %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestLoadRejectsV1MemoryEvents(t *testing.T) {
	_, err := Load(joinTrace(
		line(0, 0, 0, false, true),
		line(1, 2, 0, false, true), // memory event without addr
	), ReaderConfig{})
	if !errors.Is(err, ErrNoAddr) {
		t.Errorf("err = %v, want ErrNoAddr", err)
	}
}

// Parsing allocates per block at most, never per line: blocks and their
// buffers are recycled, and a parsed line leaves nothing behind but its
// reference. Ten times the lines must not cost ten times the allocations.
func TestReaderBoundedAllocation(t *testing.T) {
	withBlockBytes(t, 64<<10)
	allocs := func(n int) (float64, int) {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(line(uint64(i), 1, uint64(0x40*(i%8)), false, false))
			sb.WriteByte('\n')
		}
		input := sb.String()
		return testing.AllocsPerRun(5, func() {
			if _, err := Replay(strings.NewReader(input), ReplayConfig{Hier: tinyHier()}); err != nil {
				t.Fatal(err)
			}
		}), len(input)/blockBytes + 1
	}
	few, fewBlocks := allocs(5000)
	many, manyBlocks := allocs(50000)
	t.Logf("%d blocks: %v allocations; %d blocks: %v", fewBlocks, few, manyBlocks, many)
	if many > 2*few || many > float64(manyBlocks) {
		t.Errorf("10x the lines (%d blocks) allocated %v times vs %v; per-line allocation crept in", manyBlocks, many, few)
	}
}

// fixedWidth joins lines padded with spaces to width bytes each, newline
// included, so that a block of a multiple of width holds whole lines.
func fixedWidth(t *testing.T, width int, lines []string) []byte {
	var b bytes.Buffer
	for _, l := range lines {
		if len(l) >= width {
			t.Fatalf("line of %d bytes wider than %d", len(l), width)
		}
		b.WriteString(l + strings.Repeat(" ", width-1-len(l)) + "\n")
	}
	return b.Bytes()
}

// Everything the reader checks across lines must hold across a block
// boundary: each case puts its line first in a block.
func TestBlockBoundaryFirstLine(t *testing.T) {
	const width, perBlock, n = 192, 4, 16
	withBlockBytes(t, width*perBlock)
	cases := []struct {
		name string
		seq  func(prev uint64) uint64 // seq of the boundary line
		text func(seq uint64) string  // the boundary line
		want error                    // nil: the trace replays
		segs int
	}{
		{"segment reset", func(uint64) uint64 { return 0 }, nil, nil, 2},
		{"seq gap", func(prev uint64) uint64 { return prev + 2 }, nil, ErrSampled, 0},
		{"segment starts nonzero", func(uint64) uint64 { return 1 }, nil, ErrSampled, 0},
		{"parse error", nil, func(uint64) string { return `{"seq":` }, ErrParse, 0},
		{"validate error", nil, func(seq uint64) string {
			return strings.Replace(line(seq, 1, 0x40, false, false), `"level":1`, `"level":5`, 1)
		}, nil, -1},
		{"v1 memory event", nil, func(seq uint64) string { return line(seq, 2, 0, false, true) }, ErrNoAddr, 0},
		{"v1 memory event after a gap", func(prev uint64) uint64 { return prev + 2 }, func(seq uint64) string { return line(seq, 2, 0, false, true) }, ErrSampled, 0},
	}
	for _, c := range cases {
		for _, at := range []int{perBlock, 2 * perBlock} {
			var lines []string
			for i, seq := 0, uint64(0); i < n; i, seq = i+1, seq+1 {
				if i == at && c.seq != nil {
					seq = c.seq(seq - 1)
				}
				l := line(seq, (i+1)%4, uint64(0x40*i), i%3 == 0, false)
				if i == at && c.text != nil {
					l = c.text(seq)
				}
				lines = append(lines, l)
			}
			input := fixedWidth(t, width, lines)
			name := fmt.Sprintf("%s at line %d", c.name, at+1)
			for _, sampled := range []bool{false, true} {
				matchesSequential(t, name, input, ReplayConfig{Hier: tinyHier(), Reader: ReaderConfig{AllowSampled: sampled}})
			}
			res, err := Replay(bytes.NewReader(input), ReplayConfig{Hier: tinyHier()})
			switch {
			case c.segs > 0:
				if err != nil || len(res.Segments) != c.segs {
					t.Errorf("%s: %v, want %d segments", name, err, c.segs)
				}
			case err == nil || !strings.Contains(err.Error(), fmt.Sprintf("line %d: ", at+1)):
				t.Errorf("%s: err = %v, want a failure at line %d", name, err, at+1)
			case c.want != nil && !errors.Is(err, c.want):
				t.Errorf("%s: err = %v, want %v", name, err, c.want)
			}
		}
	}
}

// stuck is a reader that never returns data or an error.
type stuck struct{}

func (stuck) Read([]byte) (int, error) { return 0, nil }

// A failing input reports its error after the lines read before it, at
// the next line's number, as a line-by-line reader does: also when the
// error cuts a line short or the reader stops making progress, and with
// the input's start in a block of its own.
func TestReaderInputErrors(t *testing.T) {
	boom := errors.New("boom")
	var lines []string
	for i := 0; i < 50; i++ {
		lines = append(lines, line(uint64(i), 1, uint64(0x40*i), false, false))
	}
	text := traceText(lines...)
	for _, block := range []int{blockBytes, 1024} {
		withBlockBytes(t, block)
		for name, open := range map[string]func() io.Reader{
			"error after whole lines": func() io.Reader { return io.MultiReader(strings.NewReader(text), iotest.ErrReader(boom)) },
			"error mid-line":          func() io.Reader { return io.MultiReader(strings.NewReader(text+`{"seq":50`), iotest.ErrReader(boom)) },
			"error with data":         func() io.Reader { return iotest.DataErrReader(iotest.HalfReader(strings.NewReader(text))) },
			"no progress":             func() io.Reader { return io.MultiReader(strings.NewReader(text), stuck{}) },
		} {
			readerMatchesSequential(t, fmt.Sprintf("%s/block%d", name, block), open, ReplayConfig{Hier: tinyHier()})
		}
		_, err := Load(io.MultiReader(strings.NewReader(text), iotest.ErrReader(boom)), ReaderConfig{})
		if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "trace: line 51: ") {
			t.Errorf("err = %v, want boom at line 51", err)
		}
	}
}

// longLine is a valid event line of exactly n bytes.
func longLine(seq uint64, n int) string {
	l := line(seq, 0, 0, false, false)
	return strings.Replace(l, `"disasm":"x"`, `"disasm":"`+strings.Repeat("x", n-len(l)+1)+`"`, 1)
}

// A line one byte under DefaultMaxLineBytes is accepted and one at the
// bound is refused at its own line number, even when it starts in one
// block and ends in the next.
func TestLineBoundStraddlesBlock(t *testing.T) {
	for _, block := range []int{blockBytes, 4096} {
		for _, n := range []int{DefaultMaxLineBytes - 1, DefaultMaxLineBytes} {
			t.Run(fmt.Sprintf("block%d/line%d", block, n), func(t *testing.T) {
				withBlockBytes(t, block)
				var lines []string
				const before = 5000 // about 0.7 MiB
				for i := 0; i < before; i++ {
					lines = append(lines, line(uint64(i), 1, uint64(0x40*(i%64)), false, false))
				}
				lines = append(lines, longLine(before, n))
				for i := before + 1; i < before+10; i++ {
					lines = append(lines, line(uint64(i), 1, 0x40, false, false))
				}
				input := []byte(traceText(lines...))
				matchesSequential(t, "long line", input, ReplayConfig{Hier: tinyHier()})
				_, err := Load(bytes.NewReader(input), ReaderConfig{})
				if n < DefaultMaxLineBytes {
					if err != nil {
						t.Fatal(err)
					}
					return
				}
				if !errors.Is(err, bufio.ErrTooLong) || !strings.HasPrefix(err.Error(), fmt.Sprintf("trace: line %d: ", before+1)) {
					t.Errorf("err = %v, want bufio.ErrTooLong at line %d", err, before+1)
				}
			})
		}
	}
}

// endless serves a trace of memory events that never ends, with junk in
// place of the line with seq badAt (if nonzero). onRead, if set, sees the
// bytes served so far after every read.
type endless struct {
	seq     uint64
	badAt   uint64
	pending []byte
	served  int
	onRead  func(served int)
}

func (e *endless) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(e.pending) == 0 {
			l := line(e.seq, 1, 0x40*(e.seq%64), false, false)
			if e.badAt != 0 && e.seq == e.badAt {
				l = "junk"
			}
			e.pending = []byte(l + "\n")
			e.seq++
		}
		c := copy(p[n:], e.pending)
		e.pending = e.pending[c:]
		n += c
	}
	e.served += n
	if e.onRead != nil {
		e.onRead(e.served)
	}
	return n, nil
}

// A failure stops the parse early: the reader goroutine stops reading,
// the workers stop parsing, and all of them have exited when Replay or
// Load returns, whichever layer failed first.
func TestReplayEarlyExit(t *testing.T) {
	before := runtime.NumGoroutine()
	// Workers plus the consumer hold a block each; the reader may be
	// filling one more.
	bound := (runtime.GOMAXPROCS(0) + 2) * blockBytes
	check := func(name string, e *endless, err, want error, readBound int) {
		t.Helper()
		if !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
		if e.served > readBound {
			t.Errorf("%s: read %d bytes before stopping, want at most %d", name, e.served, readBound)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines left running, %d before", name, n, before)
		}
	}

	e := &endless{badAt: 5}
	_, err := Replay(e, ReplayConfig{Hier: tinyHier()})
	check("Replay: parse error in block 1", e, err, ErrParse, bound)
	if err != nil && !strings.HasPrefix(err.Error(), "trace: line 6: ") {
		t.Errorf("parse error reported as %v, want line 6", err)
	}
	e = &endless{badAt: 5}
	_, err = Load(e, ReaderConfig{})
	check("Load: parse error in block 1", e, err, ErrParse, bound)

	e = &endless{}
	_, err = Replay(e, ReplayConfig{Hier: tinyHier(), MaxRefs: 10})
	check("budget", e, err, govern.ErrBudget, bound)

	// The parse error sits later in the same block, or blocks later where
	// another worker may well find it first; either way the budget trips
	// earlier in the stream.
	for _, badAt := range []uint64{50, 50000} {
		e = &endless{badAt: badAt}
		_, err = Replay(e, ReplayConfig{Hier: tinyHier(), MaxRefs: 10})
		check(fmt.Sprintf("budget before a parse error at seq %d", badAt), e, err, govern.ErrBudget, bound)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e = &endless{onRead: func(served int) {
		if served > 3*blockBytes {
			cancel()
		}
	}}
	_, err = Replay(e, ReplayConfig{Hier: tinyHier(), Ctx: ctx})
	check("cancel", e, err, govern.ErrCanceled, 3*blockBytes+bound)
}
