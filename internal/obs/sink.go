package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"informing/internal/stats"
)

// traceJSON is the stable JSONL schema of one trace event
// (EXPERIMENTS.md documents it; cmd/tracecheck validates it).
// appendTraceJSON is the encoder — the struct exists as schema
// documentation and for tests that decode the stream.
//
// Schema v2 (DESIGN.md §16): memory instructions (level > 0) additionally
// carry addr and kind, and multiprocessor traces carry tid; all three are
// omitted otherwise, so v1 consumers keep validating unchanged and v1
// traces remain valid v2 traces (without being replayable).
type traceJSON struct {
	Seq      uint64 `json:"seq"`
	PC       string `json:"pc"` // hex, human-greppable
	Disasm   string `json:"disasm"`
	Fetch    int64  `json:"fetch"`
	Issue    int64  `json:"issue"`
	Complete int64  `json:"complete"`
	Graduate int64  `json:"graduate"`
	Level    int    `json:"level"`
	Addr     string `json:"addr,omitempty"` // hex effective address, memory ops only
	Kind     string `json:"kind,omitempty"` // "load" or "store", memory ops only
	Tid      int    `json:"tid,omitempty"`  // thread/processor id, 0 omitted
	Trap     bool   `json:"trap"`
}

// appendJSONString appends s as a JSON string literal. Disassembly text is
// plain ASCII in practice, so the fast path is a straight copy; quotes,
// backslashes, control characters and invalid UTF-8 get the standard
// escapes so the output always parses.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			b = append(b, c)
			i++
			continue
		}
		switch {
		case c == '"', c == '\\':
			b = append(b, '\\', c)
			i++
		case c < 0x20:
			const hex = "0123456789abcdef"
			switch c {
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
		default: // non-ASCII: validate the rune, re-encode as UTF-8
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(b, `�`...)
				i++
				continue
			}
			b = append(b, s[i:i+size]...)
			i += size
		}
	}
	return append(b, '"')
}

// appendTraceJSON appends one schema line (without trailing newline),
// field-for-field what encoding/json would produce for traceJSON —
// sink_test.go round-trips the stream through the struct to keep the two
// in agreement.
func appendTraceJSON(b []byte, ev *stats.TraceEvent) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, `,"pc":"0x`...)
	b = strconv.AppendUint(b, ev.PC, 16)
	b = append(b, `","disasm":`...)
	b = appendJSONString(b, ev.Disasm)
	b = append(b, `,"fetch":`...)
	b = strconv.AppendInt(b, ev.Fetch, 10)
	b = append(b, `,"issue":`...)
	b = strconv.AppendInt(b, ev.Issue, 10)
	b = append(b, `,"complete":`...)
	b = strconv.AppendInt(b, ev.Complete, 10)
	b = append(b, `,"graduate":`...)
	b = strconv.AppendInt(b, ev.Graduate, 10)
	b = append(b, `,"level":`...)
	b = strconv.AppendInt(b, int64(ev.MemLevel), 10)
	if ev.MemLevel > 0 {
		b = append(b, `,"addr":"0x`...)
		b = strconv.AppendUint(b, ev.Addr, 16)
		if ev.Store {
			b = append(b, `","kind":"store"`...)
		} else {
			b = append(b, `","kind":"load"`...)
		}
	}
	if ev.Tid > 0 {
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(ev.Tid), 10)
	}
	if ev.Trap {
		b = append(b, `,"trap":true}`...)
	} else {
		b = append(b, `,"trap":false}`...)
	}
	return b
}

// JSONLSink streams trace events as one JSON object per line through a
// buffered writer. Emit is safe for concurrent use: parallel experiment
// sweeps (internal/sched) funnel the trace streams of all workers into one
// sink. Events sit in the buffer until Flush/Close, which is why every
// abort path (govern.ErrBudget, ErrLivelock, SIGINT) must route through
// Flush: without it an aborted run loses the tail of the trace. Close
// implies Flush and is idempotent.
type JSONLSink struct {
	mu      sync.Mutex
	every   uint64 // keep one event in every this many offered; <= 1 keeps all
	seen    uint64 // events offered since the last kept one
	bw      *bufio.Writer
	under   io.Writer
	scratch []byte // reused line-encoding buffer (guarded by mu)
	closed  bool
	err     error // first write error, surfaced by Flush/Close
}

// NewJSONL builds a JSONL sink writing to w, keeping every sampleEvery-th
// event offered (<= 1 keeps all). Every command samples at the source
// (pipe.Config.TraceEvery) and passes 1. If w is an io.Closer, Close
// closes it after the final flush.
func NewJSONL(w io.Writer, sampleEvery int) *JSONLSink {
	s := &JSONLSink{bw: bufio.NewWriterSize(w, 64<<10), under: w}
	if sampleEvery > 1 {
		s.every = uint64(sampleEvery)
	}
	return s
}

// Emit writes one event. The line is built with the allocation-free append
// encoder into a buffer reused across calls: with tracing enabled the sink
// is on the simulators' per-instruction path, and encoding/json here costs
// more than the whole §11 overhead budget.
func (s *JSONLSink) Emit(ev stats.TraceEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		return
	}
	if s.every > 1 {
		if s.seen++; s.seen < s.every {
			return
		}
		s.seen = 0
	}
	s.scratch = appendTraceJSON(s.scratch[:0], &ev)
	s.scratch = append(s.scratch, '\n')
	if _, err := s.bw.Write(s.scratch); err != nil {
		s.err = err
	}
}

// Flush writes buffered lines to the underlying writer. A partial trace
// flushed mid-run is still well-formed JSONL (events are written whole
// lines at a time through the buffer).
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *JSONLSink) flushLocked() error {
	if s.err != nil {
		return fmt.Errorf("obs: jsonl sink: %w", s.err)
	}
	if err := s.bw.Flush(); err != nil {
		s.err = err
		return fmt.Errorf("obs: jsonl sink: %w", err)
	}
	return nil
}

// Close flushes, then closes the underlying writer when it is an
// io.Closer. Idempotent.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.flushLocked()
	if c, ok := s.under.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("obs: jsonl sink: %w", cerr)
		}
	}
	return err
}
