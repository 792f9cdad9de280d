package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"informing/internal/core"
	"informing/internal/isa"
	"informing/internal/mem"
	"informing/internal/obs"
	"informing/internal/progen"
	"informing/internal/workload"
)

// seqParse is the sequential reference the block-parallel reader is
// checked against: one bufio.Scanner over the input, with ParseLine,
// Validate and the segmentation rule applied line by line and errors
// worded as Load and Replay word them. It calls event for every event
// that passes.
func seqParse(r io.Reader, cfg ReaderConfig, event func(line int, segStart bool, ev *Event) error) (events, traps uint64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), DefaultMaxLineBytes)
	var (
		ev   Event
		line int
		prev uint64
	)
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			return 0, 0, fmt.Errorf("trace: line %d: empty line", line)
		}
		if err := ParseLine(b, &ev); err != nil {
			return 0, 0, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if err := ev.Validate(); err != nil {
			return 0, 0, fmt.Errorf("line %d: %w", line, err)
		}
		segStart := events == 0 || ev.Seq <= prev
		if !cfg.AllowSampled {
			if segStart && ev.Seq != 0 {
				return 0, 0, fmt.Errorf("line %d: segment starts at seq %d, want 0: %w", line, ev.Seq, ErrSampled)
			}
			if !segStart && ev.Seq != prev+1 {
				return 0, 0, fmt.Errorf("line %d: seq gap %d -> %d: %w", line, prev, ev.Seq, ErrSampled)
			}
		}
		prev = ev.Seq
		events++
		if ev.Trap {
			traps++
		}
		if err := event(line, segStart, &ev); err != nil {
			return 0, 0, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	return events, traps, nil
}

// memRef is the reference a memory event carries, or ErrNoAddr.
func memRef(line int, ev *Event) (Ref, error) {
	if !ev.Has(FieldAddr) {
		return Ref{}, fmt.Errorf("line %d: %w", line, ErrNoAddr)
	}
	return Ref{Addr: ev.Addr, Tid: int32(ev.Tid), Level: int8(ev.Level), Store: ev.Store}, nil
}

func seqLoad(r io.Reader, cfg ReaderConfig) (*Data, error) {
	d := &Data{}
	events, traps, err := seqParse(r, cfg, func(line int, segStart bool, ev *Event) error {
		if segStart {
			d.SegStart = append(d.SegStart, len(d.Refs))
			d.SegEvents = append(d.SegEvents, 0)
		}
		d.SegEvents[len(d.SegEvents)-1]++
		if !ev.Mem() {
			return nil
		}
		ref, err := memRef(line, ev)
		if err != nil {
			return err
		}
		d.Refs = append(d.Refs, ref)
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.Events, d.Traps = events, traps
	return d, nil
}

func seqReplay(r io.Reader, cfg ReplayConfig) (*ReplayResult, error) {
	rp := newReplayer(cfg, nil)
	_, _, err := seqParse(r, cfg.Reader, func(line int, segStart bool, ev *Event) error {
		if segStart {
			rp.beginSegment()
		}
		rp.seg.Events++
		if !ev.Mem() {
			return nil
		}
		ref, err := memRef(line, ev)
		if err != nil {
			return err
		}
		return rp.ref(ref)
	})
	if err != nil {
		return nil, err
	}
	return rp.finish()[0], nil
}

// matchesSequential runs Replay and Load over input and demands the
// sequential reference's result, or its error word for word.
func matchesSequential(t *testing.T, name string, input []byte, cfg ReplayConfig) {
	t.Helper()
	readerMatchesSequential(t, name, func() io.Reader { return bytes.NewReader(input) }, cfg)
}

// readerMatchesSequential is matchesSequential over the readers open
// returns, a new one per call.
func readerMatchesSequential(t *testing.T, name string, open func() io.Reader, cfg ReplayConfig) {
	t.Helper()
	want, wantErr := seqReplay(open(), cfg)
	got, err := Replay(open(), cfg)
	sameOutcome(t, name+": Replay", got, err, want, wantErr)
	wantD, wantErr := seqLoad(open(), cfg.Reader)
	gotD, err := Load(open(), cfg.Reader)
	sameOutcome(t, name+": Load", gotD, err, wantD, wantErr)
}

func sameOutcome(t *testing.T, name string, got any, err error, want any, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, sequential reference %v", name, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result %+v, sequential reference %+v", name, got, want)
	}
}

// withBlockBytes shrinks the parse block for the rest of the test.
func withBlockBytes(t testing.TB, n int) {
	old := blockBytes
	blockBytes = n
	t.Cleanup(func() { blockBytes = old })
}

// record runs prog on cfg with a full JSONL trace and returns the trace.
func record(t testing.TB, cfg core.Config, prog *isa.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf, 1)
	if _, err := cfg.WithMaxInsts(100_000_000).WithTrace(sink.Emit).Run(prog); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type recordedTrace struct {
	name  string
	jsonl []byte
	cfg   ReplayConfig
}

// progenTraces records generated programs, alternating the machine, as
// informd's trace uploads are recorded.
func progenTraces(t *testing.T, seeds int) []recordedTrace {
	var out []recordedTrace
	for seed := int64(1); seed <= int64(seeds); seed++ {
		p := progen.Generate(seed)
		scheme := core.Off
		switch p.Mode {
		case progen.Trap:
			scheme = core.TrapBranch
		case progen.CondCode:
			scheme = core.CondCode
		}
		cfg := core.Alpha21164(scheme)
		if seed%2 == 0 {
			cfg = core.R10000(scheme)
		}
		out = append(out, recordedTrace{fmt.Sprintf("progen/%d", seed), record(t, cfg, p.Prog), ReplayConfig{Hier: cfg.HierConfig()}})
	}
	return out
}

// benchTraces records the two traces the trace benchmarks replay: a
// miss-heavy FP benchmark in order and a hit-heavy INT benchmark out of
// order, both under the 1-instruction single-handler plan (S1).
func benchTraces(t testing.TB) []recordedTrace {
	var out []recordedTrace
	for _, c := range []struct {
		bench string
		cfg   core.Config
	}{{"tomcatv", core.Alpha21164(core.TrapBranch)}, {"espresso", core.R10000(core.TrapBranch)}} {
		bm, ok := workload.ByName(c.bench)
		if !ok {
			t.Fatalf("unknown benchmark %s", c.bench)
		}
		prog, err := workload.Build(bm, workload.NewPlanSingle(1), 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, recordedTrace{c.bench + "/S1", record(t, c.cfg, prog), ReplayConfig{Hier: c.cfg.HierConfig()}})
	}
	return out
}

// corrupt returns a copy of trace with one seeded corruption: a flipped
// byte, a dropped, duplicated, emptied or swapped line, or a truncation.
func corrupt(trace []byte, rng *rand.Rand) []byte {
	lines := bytes.SplitAfter(trace, []byte("\n"))
	i := rng.Intn(len(lines))
	switch rng.Intn(6) {
	case 0:
		out := bytes.Clone(trace)
		out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
		return out
	case 1:
		lines = append(lines[:i:i], lines[i+1:]...)
	case 2:
		lines = append(lines[:i+1:i+1], lines[i:]...)
	case 3:
		lines[i] = []byte("\n")
	case 4:
		j := rng.Intn(len(lines))
		lines[i], lines[j] = lines[j], lines[i]
	case 5:
		return trace[:rng.Intn(len(trace))]
	}
	return bytes.Join(lines, nil)
}

// TestReplayParallelMatchesSequential is the block-parallel reader's
// differential: over recorded traces and seeded corruptions of them,
// Replay and Load must return exactly what the sequential reference
// returns, or the same error text, with 1 MiB blocks and with blocks of
// a few dozen lines.
func TestReplayParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(traces []recordedTrace, corruptions int) {
		for _, tr := range traces {
			matchesSequential(t, tr.name, tr.jsonl, tr.cfg)
			for i := 0; i < corruptions; i++ {
				matchesSequential(t, fmt.Sprintf("%s/corrupt%d", tr.name, i), corrupt(tr.jsonl, rng), tr.cfg)
			}
		}
	}
	progen := progenTraces(t, 6)
	check(progen, 3)
	if !testing.Short() {
		// About a hundred 1 MiB blocks each.
		check(benchTraces(t), 1)
	}
	withBlockBytes(t, 4096)
	check(progen, 3)
}

// FuzzReplay runs Replay and Load against the sequential reference on
// arbitrary input, with blocks of 64 bytes to a few KiB so that the
// boundaries fall everywhere, under both sampled-trace policies and a
// range of reference budgets. What loads is also replayed through
// ReplayShared with a second, halved L2 under the same L1, and each
// result must be the sequential reference's for its own geometry.
func FuzzReplay(f *testing.F) {
	for _, seed := range []string{
		"",
		"\n",
		"\r\n",
		line(0, 1, 0x40, false, false) + "\n" + line(1, 2, 0x80, true, false) + "\n",
		line(0, 0, 0, false, false) + "\n" + line(0, 1, 0x40, false, false) + "\n",
		line(0, 1, 0x40, false, false) + "\r\n" + line(2, 1, 0x40, false, false),
		line(0, 1, 0x40, false, false) + "\n" + line(1, 2, 0, false, true) + "\n",
		line(0, 0, 0, false, false) + "\n\n" + line(1, 0, 0, false, false) + "\n",
		line(5, 1, 0x40, false, false) + "\n{\"seq\":",
	} {
		f.Add([]byte(seed), uint16(len(seed)/2), uint8(0))
	}
	f.Fuzz(func(t *testing.T, input []byte, block uint16, flags uint8) {
		withBlockBytes(t, 64+int(block)%4096)
		cfg := ReplayConfig{
			Hier:    tinyHier(),
			Reader:  ReaderConfig{AllowSampled: flags&1 != 0},
			MaxRefs: []uint64{0, 1, 3, 10}[flags>>1&3],
		}
		matchesSequential(t, "fuzz", input, cfg)

		d, err := Load(bytes.NewReader(input), cfg.Reader)
		if err != nil {
			return
		}
		half := tinyHier()
		half.L2.SizeBytes /= 2
		hiers := []mem.HierConfig{tinyHier(), half}
		got, err := ReplayShared(d, hiers, cfg)
		for i, h := range hiers {
			cfg.Hier = h
			want, wantErr := seqReplay(bytes.NewReader(input), cfg)
			var res *ReplayResult
			if err == nil {
				res = got[i]
			}
			sameOutcome(t, fmt.Sprintf("fuzz: ReplayShared[%d]", i), res, err, want, wantErr)
		}
	})
}
