package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
)

// ErrSampled reports a trace that is missing events: a segment whose
// first event's seq is nonzero, or a seq gap inside a segment. Replaying
// such a trace (typically a -trace-sample 1-in-N recording) would
// silently produce wrong miss rates, so the reader refuses it unless
// ReaderConfig.AllowSampled is set.
var ErrSampled = errors.New("trace: sampled trace (seq gaps); replay needs a full -trace-sample 1 recording, or pass AllowSampled/-allow-sampled for an approximate replay")

// ErrNoAddr reports a memory event without the schema-v2 addr/kind pair:
// the trace predates schema v2 (or was recorded by a v1 writer) and
// cannot drive the memory model.
var ErrNoAddr = errors.New("trace: memory event lacks addr/kind (schema v1 traces validate but cannot be replayed)")

// DefaultMaxLineBytes bounds one trace line: a line of this many bytes or
// more, its newline not counted, fails with an error wrapping
// bufio.ErrTooLong. The encoder emits well under 1 KiB per event; the
// bound only guards the reader's memory against malformed input.
const DefaultMaxLineBytes = 1 << 20

// ReaderConfig is the parsing policy of Load and Replay. The zero value
// is the strict default: full (unsampled) traces only.
type ReaderConfig struct {
	// AllowSampled accepts traces with seq gaps (see ErrSampled).
	AllowSampled bool
}

// Ref is one memory reference in a loaded trace, compact enough that
// multi-hundred-thousand-event traces load into a few MB.
type Ref struct {
	Addr  uint64
	Tid   int32
	Level int8 // recorded level (1..3) from the originating run
	Store bool
}

// Data is a fully loaded trace: the memory references (non-memory events
// are counted but not stored) plus segment boundaries, ready for
// repeated replay under different hierarchy configurations (the
// experiments sweep replays one Data across a geometry grid).
type Data struct {
	Refs      []Ref
	SegStart  []int    // Refs index where each segment begins, ascending
	SegEvents []uint64 // events per segment, including non-memory

	Events uint64 // all events, including non-memory
	Traps  uint64
}

// Load reads an entire trace into a Data. Memory is bounded by the
// number of memory references, not the JSONL size.
func Load(r io.Reader, cfg ReaderConfig) (*Data, error) {
	d := &Data{}
	events, traps, err := parse(r, cfg, func(newSegment bool, refs []Ref, events uint64) error {
		if newSegment {
			d.SegStart = append(d.SegStart, len(d.Refs))
			d.SegEvents = append(d.SegEvents, 0)
		}
		d.SegEvents[len(d.SegEvents)-1] += events
		d.Refs = append(d.Refs, refs...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.Events, d.Traps = events, traps
	return d, nil
}

// blockBytes is the size of one parse block, at most DefaultMaxLineBytes.
// Tests shrink it to put block boundaries where they want them.
var blockBytes = 1 << 20

// blockPool recycles blocks across parses, so that neither a small
// upload nor a long trace allocates fresh buffers.
var blockPool = sync.Pool{New: func() any { return &block{done: make(chan struct{}, 1)} }}

// A block is a run of whole input lines and, once parsed, what they hold.
type block struct {
	buf  []byte
	tail error         // input error after the block's last line
	done chan struct{} // a worker finished parsing the block

	refs   []Ref
	segs   []segMark // segments beginning after the block's first event
	events uint64    // lines that passed Validate and, after the first, the seq rule
	traps  uint64
	first  uint64 // seq of the first event
	last   uint64 // seq of the last event
	lines  int
	err    lineErr
}

// segMark is a segment start inside a block: before refs[ref] and after
// the block's first `events` events.
type segMark struct {
	ref    int
	events uint64
}

// A lineErr is a failure at a line counted from its block's start; the
// consumer renders it at the absolute line number.
type lineErr struct {
	line   int    // 1-based within the block
	prefix string // the rendered message starts prefix, line, ": "
	err    error
}

var errEmptyLine = errors.New("empty line")

// parse runs ParseLine, Validate and segmentation over b's lines,
// stopping at the first error. The first event's segmentation needs the
// event before the block, so the consumer decides it.
func (b *block) parse(allowSampled bool) {
	b.refs, b.segs = b.refs[:0], b.segs[:0]
	b.events, b.traps, b.first, b.last, b.lines, b.err = 0, 0, 0, 0, 0, lineErr{}
	fail := func(prefix string, err error) { b.err = lineErr{b.lines, prefix, err} }
	var ev Event
	for rest := b.buf; len(rest) > 0; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		b.lines++
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			fail("trace: line ", errEmptyLine)
			return
		}
		if err := ParseLine(line, &ev); err != nil {
			fail("trace: line ", err)
			return
		}
		if err := ev.Validate(); err != nil {
			fail("line ", err)
			return
		}
		if b.events == 0 {
			b.first = ev.Seq
		} else {
			start, err := segment(false, b.last, ev.Seq, allowSampled)
			if err != nil {
				fail("line ", err)
				return
			}
			if start {
				b.segs = append(b.segs, segMark{len(b.refs), b.events})
			}
		}
		b.last = ev.Seq
		b.events++
		if ev.Trap {
			b.traps++
		}
		if ev.Mem() {
			if !ev.Has(FieldAddr) {
				fail("line ", ErrNoAddr)
				return
			}
			b.refs = append(b.refs, Ref{Addr: ev.Addr, Tid: int32(ev.Tid), Level: int8(ev.Level), Store: ev.Store})
		}
	}
}

// segment applies the segmentation rule to an event with sequence number
// seq following one with prev (first: no event precedes it). A seq at or
// below its predecessor starts a new segment (concatenated traces
// restart at 0); within a segment seq must advance by exactly 1, and a
// segment must start at 0. Anything else means events were dropped
// (sampling), an error unless allowSampled.
func segment(first bool, prev, seq uint64, allowSampled bool) (start bool, err error) {
	start = first || seq <= prev
	switch {
	case allowSampled:
	case start && seq != 0:
		err = fmt.Errorf("segment starts at seq %d, want 0: %w", seq, ErrSampled)
	case !start && seq != prev+1:
		err = fmt.Errorf("seq gap %d -> %d: %w", prev, seq, ErrSampled)
	}
	return start, err
}

// framer cuts the input into blocks that end at a newline.
type framer struct {
	r     io.Reader
	carry []byte // the partial line after the previous block
	done  bool   // the input is exhausted or failed
}

// frame fills b with the next block: the carried partial line, then input
// up to blockBytes, cut after the last newline. A line that does not fit
// grows the buffer up to DefaultMaxLineBytes. At the end of the input the
// rest, its last line possibly unterminated, is the final block. frame
// reports false when nothing is left.
func (f *framer) frame(b *block) bool {
	size := max(blockBytes, len(f.carry)+1)
	buf := slices.Grow(b.buf[:0], size)[:size]
	n := copy(buf, f.carry)
	scanned := n // the carry holds no newline
	b.tail = nil
	for {
		m, err := read(f.r, buf[n:])
		n += m
		if err != nil {
			if err != io.EOF {
				b.tail = err
			}
			b.buf, f.carry, f.done = buf[:n], nil, true
			return n > 0 || b.tail != nil
		}
		if i := bytes.LastIndexByte(buf[scanned:], '\n'); i >= 0 {
			cut := scanned + i + 1
			b.buf, f.carry = buf[:cut], buf[cut:]
			return true
		}
		if n >= DefaultMaxLineBytes {
			b.buf, b.tail, f.carry, f.done = buf[:0], bufio.ErrTooLong, nil, true
			return true
		}
		scanned, size = n, min(2*n, DefaultMaxLineBytes)
		buf = slices.Grow(buf, size-n)[:size]
	}
}

// read fills buf from r, stopping at the first error, and fails with
// io.ErrNoProgress after 100 empty reads in a row, as bufio.Scanner does.
func read(r io.Reader, buf []byte) (int, error) {
	n, empty := 0, 0
	for n < len(buf) {
		m, err := r.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
		if m > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			return n, io.ErrNoProgress
		}
	}
	return n, nil
}

// emitFunc receives a run of one segment's references in stream order.
// newSegment reports that the run starts a segment; events counts the
// run's events, memory or not.
type emitFunc func(newSegment bool, refs []Ref, events uint64) error

// stream consumes parsed blocks in input order.
type stream struct {
	allowSampled bool
	emit         emitFunc

	lines  int // lines before the current block
	events uint64
	traps  uint64
	prev   uint64 // seq of the last event
}

// parse reads a JSONL trace and hands its references to emit in stream
// order, returning the event and trap counts. An input that fits in one
// block is parsed on the calling goroutine. A longer one is cut into
// blocks by a reader goroutine, parsed by GOMAXPROCS workers and consumed
// in order by the caller, with at most workers+1 blocks alive. Either
// way the first error in stream order is the one returned.
func parse(r io.Reader, cfg ReaderConfig, emit emitFunc) (events, traps uint64, err error) {
	s := &stream{allowSampled: cfg.AllowSampled, emit: emit}
	f := &framer{r: r}
	b := blockPool.Get().(*block)
	switch {
	case !f.frame(b):
		blockPool.Put(b)
	case f.done:
		b.parse(s.allowSampled)
		err = s.consume(b)
		blockPool.Put(b)
	default:
		err = s.pipeline(f, b)
	}
	return s.events, s.traps, err
}

// pipeline parses the blocks f cuts, starting with first, on GOMAXPROCS
// workers, and consumes them in order until the input ends or a block
// fails. It returns once its goroutines have exited.
func (s *stream) pipeline(f *framer, first *block) error {
	workers := runtime.GOMAXPROCS(0)
	// One block per worker plus the one being consumed. Each channel is
	// sized to hold all of them, so no send blocks.
	nblocks := workers + 1
	work := make(chan *block, nblocks)
	order := make(chan *block, nblocks)
	free := make(chan *block, nblocks)
	stop := make(chan struct{})
	blocks := []*block{first}

	var wg sync.WaitGroup
	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		defer close(work)
		defer close(order)
		for b := first; ; {
			work <- b
			order <- b
			if f.done {
				return
			}
			if len(blocks) < nblocks {
				b = blockPool.Get().(*block)
				blocks = append(blocks, b)
			} else {
				select {
				case b = <-free:
				case <-stop:
					return
				}
			}
			if !f.frame(b) {
				return
			}
		}
	}()
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for b := range work {
				select {
				case <-stop: // the caller has its answer
				default:
					b.parse(s.allowSampled)
				}
				b.done <- struct{}{}
			}
		}()
	}

	var err error
	for b := range order {
		<-b.done
		if err = s.consume(b); err != nil {
			break
		}
		free <- b
	}
	close(stop)
	wg.Wait()
	for _, b := range blocks {
		select {
		case <-b.done: // parsed but never consumed
		default:
		}
		blockPool.Put(b)
	}
	return err
}

// consume takes the next block in stream order: it segments the block's
// first event against the event before it, hands the block's runs to
// emit, and then reports the block's error, if any, at its absolute line.
func (s *stream) consume(b *block) error {
	if b.events > 0 {
		start, err := segment(s.events == 0, s.prev, b.first, s.allowSampled)
		if err != nil {
			return s.errorAt(lineErr{1, "line ", err})
		}
		ref, events := 0, uint64(0)
		for _, m := range b.segs {
			if err := s.emit(start, b.refs[ref:m.ref], m.events-events); err != nil {
				return err
			}
			ref, events, start = m.ref, m.events, true
		}
		if err := s.emit(start, b.refs[ref:], b.events-events); err != nil {
			return err
		}
	}
	if b.err.err != nil {
		return s.errorAt(b.err)
	}
	if b.tail != nil {
		return s.errorAt(lineErr{b.lines + 1, "trace: line ", b.tail})
	}
	s.lines += b.lines
	s.events += b.events
	s.traps += b.traps
	s.prev = b.last
	return nil
}

func (s *stream) errorAt(e lineErr) error {
	return fmt.Errorf("%s%d: %w", e.prefix, s.lines+e.line, e.err)
}
