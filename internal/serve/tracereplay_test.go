package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"informing/internal/core"
	"informing/internal/obs"
	"informing/internal/trace"
	"informing/internal/workload"
)

// TestTraceUploadValidation covers the request-shape rules without
// touching the simulator.
func TestTraceUploadValidation(t *testing.T) {
	good := `{"seq":0,"pc":"0x1000","disasm":"ld","fetch":0,"issue":1,"complete":2,"graduate":3,"level":1,"addr":"0x40","kind":"load","trap":false}` + "\n"
	cases := []struct {
		name string
		req  Request
		ok   bool
	}{
		{"good", Request{Kind: KindTrace, Trace: good}, true},
		{"machine alias", Request{Kind: KindTrace, Trace: good, Machine: "in-order"}, true},
		{"empty trace", Request{Kind: KindTrace}, false},
		{"bad machine", Request{Kind: KindTrace, Trace: good, Machine: "vax"}, false},
		{"oversized", Request{Kind: KindTrace, Trace: strings.Repeat("x", MaxTraceBytes+1)}, false},
	}
	for _, c := range cases {
		canon, err := Canonicalize(c.req, 0)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%t", c.name, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if canon.Machine == "" {
			t.Errorf("%s: canonical machine empty", c.name)
		}
		// Fingerprints must differ by machine and content.
		other := canon
		other.Trace += good
		if Fingerprint(canon) == Fingerprint(other) {
			t.Errorf("%s: different traces share a fingerprint", c.name)
		}
	}
}

// TestTraceUploadClosedLoop is the serve half of the tentpole acceptance
// test: a golden-grid cell is recorded in-process and its trace uploaded
// through POST /v1/simulate; the served replay must reconcile the run's
// cache counters exactly, and the repeat upload must be a cache hit.
func TestTraceUploadClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays a full benchmark trace")
	}
	bm, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("unknown benchmark compress")
	}
	prog, err := workload.Build(bm, workload.NewPlanNone(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.R10000(core.Off)
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf, 1)
	run, err := cfg.WithMaxInsts(100_000_000).WithTrace(sink.Emit).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d bytes of trace", buf.Len())

	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	req := SimulateRequest{Cells: []Request{{Kind: KindTrace, Trace: buf.String(), Machine: MachineOOO}}}
	resp, body := postJSON(t, ts.URL+"/v1/simulate", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d\n%.400s", resp.StatusCode, body)
	}
	sr := decodeSim(t, body)
	cr := sr.Results[0]
	if cr.Error != nil || cr.Replay == nil {
		t.Fatalf("trace cell = %+v, want a replay result", cr)
	}
	if err := cr.Replay.Reconcile(run); err != nil {
		t.Fatalf("served replay does not reconcile with the recording run: %v", err)
	}
	if cr.Replay.Total.Events != run.DynInsts {
		t.Errorf("served replay consumed %d events, run graduated %d", cr.Replay.Total.Events, run.DynInsts)
	}

	_, body2 := postJSON(t, ts.URL+"/v1/simulate", req)
	cr2 := decodeSim(t, body2).Results[0]
	if !cr2.Cached {
		t.Error("repeat trace upload not served from cache")
	}
	if cr2.Replay == nil || cr2.Replay.Total != cr.Replay.Total {
		t.Errorf("cached replay differs from computed: %+v vs %+v", cr2.Replay, cr.Replay)
	}
}

// Malformed, sampled and v1 (addr-less) traces come back as per-cell
// "invalid" errors, not 500s; sampled traces pass with the opt-in.
func TestTraceUploadRejections(t *testing.T) {
	s := New(Config{runCell: nil})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	mk := func(seq int) string {
		return fmt.Sprintf(`{"seq":%d,"pc":"0x0","disasm":"ld","fetch":0,"issue":1,"complete":2,"graduate":3,"level":1,"addr":"0x40","kind":"load","trap":false}`+"\n", seq)
	}
	v1 := `{"seq":0,"pc":"0x0","disasm":"ld","fetch":0,"issue":1,"complete":2,"graduate":3,"level":1,"trap":false}` + "\n"

	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{
		{Kind: KindTrace, Trace: "not json\n"},
		{Kind: KindTrace, Trace: mk(63)},                     // sampled, no opt-in
		{Kind: KindTrace, Trace: v1},                         // memory event without addr
		{Kind: KindTrace, Trace: mk(63), AllowSampled: true}, // sampled, opted in
	}})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	sr := decodeSim(t, body)
	for i, wantCode := range []string{CodeInvalid, CodeInvalid, CodeInvalid, ""} {
		cr := sr.Results[i]
		if wantCode == "" {
			if cr.Error != nil || cr.Replay == nil {
				t.Errorf("cell %d = %+v, want sampled replay success", i, cr)
			} else if cr.Replay.Total.Refs != 1 {
				t.Errorf("cell %d replayed %d refs, want 1", i, cr.Replay.Total.Refs)
			}
			continue
		}
		if cr.Error == nil || cr.Error.Code != wantCode {
			t.Errorf("cell %d error = %+v, want code %q", i, cr.Error, wantCode)
		}
	}
}

// A trace outcome survives the durable-store codec byte-for-byte.
func TestStoreCodecTraceOutcome(t *testing.T) {
	res := &trace.ReplayResult{
		Total:    trace.SegmentResult{Events: 10, Refs: 6, Loads: 5, Stores: 1, L1Misses: 2, L2Misses: 1, Tids: 1},
		Segments: []trace.SegmentResult{{Events: 10, Refs: 6, Loads: 5, Stores: 1, L1Misses: 2, L2Misses: 1, Tids: 1}},
	}
	out := encoded(outcome{replay: res})
	if out.err != nil {
		t.Fatal(out.err)
	}
	back, err := decodeOutcome(out.enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.replay == nil || back.run != nil || back.multiRes != nil {
		t.Fatalf("decoded outcome = %+v, want replay only", back)
	}
	if back.replay.Total != res.Total || len(back.replay.Segments) != 1 || back.replay.Segments[0] != res.Segments[0] {
		t.Errorf("round trip changed the result: %+v vs %+v", back.replay, res)
	}
}
