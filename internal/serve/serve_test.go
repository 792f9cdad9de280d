package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"informing/internal/govern"
	"informing/internal/stats"
)

// newTestServer builds a Server (closed at test end) and an httptest
// front end for it — the full end-to-end path: real router, real JSON
// codecs, real TCP.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// fakeRunner is a controllable runCell hook: it counts invocations per
// canonical request and can hold computations until released.
type fakeRunner struct {
	mu      sync.Mutex
	calls   map[string]int
	started chan string   // receives the canonical string of each started call
	release chan struct{} // when non-nil, computations block here (or on ctx)
}

func newFakeRunner(blocking bool) *fakeRunner {
	f := &fakeRunner{calls: map[string]int{}, started: make(chan string, 64)}
	if blocking {
		f.release = make(chan struct{})
	}
	return f
}

func (f *fakeRunner) run(ctx context.Context, c Request) outcome {
	key := canonicalString(c)
	f.mu.Lock()
	f.calls[key]++
	f.mu.Unlock()
	f.started <- key
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
			return outcome{err: fmt.Errorf("%w: %w", govern.ErrCanceled, ctx.Err())}
		}
	}
	// A distinguishable, deterministic payload per request.
	run := stats.Run{}
	run.IssueWidth = 4
	run.Cycles = int64(len(key))
	return outcome{run: &run}
}

func (f *fakeRunner) count(c Request) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[canonicalString(c)]
}

func (f *fakeRunner) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.calls {
		n += c
	}
	return n
}

func cellReq(bench, plan, machine string) Request {
	return Request{Kind: KindCell, Benchmark: bench, Plan: plan, Machine: machine}
}

// tryPostJSON is the goroutine-safe POST helper (no *testing.T calls, so
// it may run off the test goroutine).
func tryPostJSON(url string, body any) (*http.Response, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return nil, nil, err
	}
	return resp, out.Bytes(), nil
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	resp, body2, err := tryPostJSON(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body2
}

func decodeSim(t *testing.T, body []byte) SimulateResponse {
	t.Helper()
	var sr SimulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("response not well-formed JSON: %v\n%s", err, body)
	}
	return sr
}

func decodeTo(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("response not well-formed JSON: %v\n%s", err, body)
	}
}

// rawHop are the headers of an authenticated raw trace hop.
var rawHop = map[string]string{HeaderForwarded: CodeVersion, HeaderClusterAuth: testClusterSecret, HeaderRawTrace: "1"}

// TestSimulateBadRequests is the table-driven 400 lane: malformed JSON,
// unknown fields, empty and oversized batches, data after the body's
// value and repeated keys all produce a well-formed error body with code
// "invalid". So does a raw trace hop whose head is not one trace cell
// without a trace, or that has no newline, and a raw body a client sends
// without the forwarded headers. The server is node 0 of a two-node
// cluster, so a hop with the cluster secret is authenticated.
func TestSimulateBadRequests(t *testing.T) {
	runner := newFakeRunner(false)
	nodes := newTestClusterNodes(t, 2, func(int) Config { return Config{runCell: runner.run, MaxCellsPerRequest: 2} })
	ts := nodes[0].ts

	cell := `{"kind":"cell","benchmark":"compress","plan":"S1"}`
	line := `{"seq":0,"pc":"0x1000","disasm":"ld","fetch":0,"issue":1,"complete":2,"graduate":3,"level":1,"addr":"0x40","kind":"load","trap":false}` + "\n"
	cases := []struct {
		name string
		path string // default /v1/simulate
		body string
		hdr  map[string]string
	}{
		{"malformed-json", "", `{"cells": [`, nil},
		{"not-json", "", `this is not json`, nil},
		{"unknown-field", "", `{"cellz": []}`, nil},
		{"empty-batch", "", `{"cells": []}`, nil},
		{"too-many-cells", "", `{"cells": [{"kind":"cell"},{"kind":"cell"},{"kind":"cell"}]}`, nil},
		{"second-body", "", `{"cells":[` + cell + `]}{"cells":[` + cell + `]}`, nil},
		{"trailing-garbage", "", `{"cells":[` + cell + `]} x`, nil},
		{"duplicate-key", "", `{"cells":[{"kind":"cell","benchmark":"compress","benchmark":"espresso","plan":"S1"}]}`, nil},
		{"duplicate-folded-key", "", `{"cells":[{"kind":"cell","benchmark":"compress","plan":"S1","PLAN":"N"}]}`, nil},
		{"explain-trailing-garbage", "/v1/explain", `{"cells":[` + cell + `]}]`, nil},
		{"experiment-second-body", "/v1/experiment", `{"name":"fig3"}{"name":"fig3"}`, nil},
		{"raw-two-cells", "", `{"cells":[{"kind":"trace"},{"kind":"trace"}]}` + "\n" + line, rawHop},
		{"raw-non-trace-cell", "", `{"cells":[` + cell + `]}` + "\n" + line, rawHop},
		{"raw-trace-in-head", "", `{"cells":[{"kind":"trace","trace":"x"}]}` + "\n" + line, rawHop},
		{"raw-no-newline", "", `{"cells":[{"kind":"trace"}]}`, rawHop},
		{"raw-bad-head", "", `{"cells":[{"kind":"trace"}]` + "\n" + line, rawHop},
		{"raw-from-client", "", `{"cells":[{"kind":"trace"}]}` + "\n" + line, map[string]string{HeaderRawTrace: "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.path
			if path == "" {
				path = "/v1/simulate"
			}
			resp, body := postBody(t, ts.URL+path, []byte(tc.body), tc.hdr)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400\n%s", resp.StatusCode, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body not JSON: %v", err)
			}
			if eb.Error == nil || eb.Error.Code != CodeInvalid {
				t.Fatalf("error body = %+v, want code %q", eb.Error, CodeInvalid)
			}
		})
	}
	if runner.total() != 0 {
		t.Fatalf("invalid requests reached the runner %d times", runner.total())
	}
}

// TestSimulatePerCellValidation: a batch mixing valid and invalid cells
// returns 200 with a well-formed partial body — results for the good
// cells, typed errors for the bad ones, in request order.
func TestSimulatePerCellValidation(t *testing.T) {
	runner := newFakeRunner(false)
	_, ts := newTestServer(t, Config{runCell: runner.run})

	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{
		cellReq("compress", "S1", "ooo"),
		cellReq("no-such-benchmark", "S1", "ooo"),
		cellReq("compress", "BOGUS", "ooo"),
		cellReq("espresso", "N", "inorder"),
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200\n%s", resp.StatusCode, body)
	}
	sr := decodeSim(t, body)
	if len(sr.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(sr.Results))
	}
	for _, i := range []int{0, 3} {
		if sr.Results[i].Error != nil || sr.Results[i].Run == nil {
			t.Errorf("result %d = %+v, want success", i, sr.Results[i])
		}
	}
	for _, i := range []int{1, 2} {
		if sr.Results[i].Error == nil || sr.Results[i].Error.Code != CodeInvalid {
			t.Errorf("result %d = %+v, want invalid error", i, sr.Results[i])
		}
	}
}

// TestCacheHitVsRecompute: the second identical request is served from
// the LRU (Cached=true, runner untouched); a different request computes.
func TestCacheHitVsRecompute(t *testing.T) {
	runner := newFakeRunner(false)
	s, ts := newTestServer(t, Config{runCell: runner.run})

	first := cellReq("compress", "S1", "ooo")
	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{first}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	sr := decodeSim(t, body)
	if sr.Results[0].Cached || sr.Results[0].Run == nil {
		t.Fatalf("first request: %+v, want computed result", sr.Results[0])
	}

	// Identical request, spelled differently (machine alias, default
	// scale made explicit): must hit the same cache entry.
	alias := first
	alias.Machine = "out-of-order"
	alias.Scale = 1
	_, body = postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{alias}})
	sr = decodeSim(t, body)
	if !sr.Results[0].Cached {
		t.Fatalf("second identical request not served from cache: %+v", sr.Results[0])
	}
	canon, err := Canonicalize(first, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := runner.count(canon); got != 1 {
		t.Fatalf("runner invoked %d times for identical requests, want 1", got)
	}
	if hits := s.met.Hits.Load(); hits != 1 {
		t.Fatalf("serve_cache_hits = %d, want 1", hits)
	}

	// A different plan is a different fingerprint: recompute.
	_, body = postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("compress", "S10", "ooo")}})
	sr = decodeSim(t, body)
	if sr.Results[0].Cached {
		t.Fatalf("different request served from cache: %+v", sr.Results[0])
	}
	if runner.total() != 2 {
		t.Fatalf("runner invoked %d times, want 2", runner.total())
	}
}

// TestDuplicateRequestsCoalesce: identical requests racing each other
// share one computation (single-flight) — the runner fires once, both
// clients get the result, and the coalesced counter proves the join.
func TestDuplicateRequestsCoalesce(t *testing.T) {
	runner := newFakeRunner(true)
	s, ts := newTestServer(t, Config{runCell: runner.run})

	req := SimulateRequest{Cells: []Request{cellReq("compress", "U10", "inorder")}}
	type reply struct {
		body []byte
		code int
		err  error
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, body, err := tryPostJSON(ts.URL+"/v1/simulate", req)
			if err != nil {
				replies <- reply{err: err}
				return
			}
			replies <- reply{body, resp.StatusCode, nil}
		}()
	}

	// Exactly one computation starts; release it once both requests are
	// in (the second either joined the flight or will hit the cache).
	select {
	case <-runner.started:
	case <-time.After(5 * time.Second):
		t.Fatal("no computation started")
	}
	deadline := time.After(5 * time.Second)
	for s.met.Coalesced.Load()+s.met.Hits.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("second request neither coalesced nor cache-hit")
		case <-time.After(time.Millisecond):
		}
	}
	close(runner.release)

	for i := 0; i < 2; i++ {
		r := <-replies
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("status = %d, want 200", r.code)
		}
		sr := decodeSim(t, r.body)
		if sr.Results[0].Error != nil || sr.Results[0].Run == nil {
			t.Fatalf("result = %+v, want success", sr.Results[0])
		}
	}
	if runner.total() != 1 {
		t.Fatalf("runner invoked %d times for racing identical requests, want 1", runner.total())
	}
}

// TestQueueOverflow429: when the bounded queue is full, a new distinct
// cell is rejected whole-request with 429 and a Retry-After header — the
// server's backpressure contract.
func TestQueueOverflow429(t *testing.T) {
	runner := newFakeRunner(true)
	defer close(runner.release)
	s, ts := newTestServer(t, Config{runCell: runner.run, Workers: 1, QueueSize: 1})

	// First cell: taken by the single worker, blocks inside the runner.
	go tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("compress", "S1", "ooo")}})
	select {
	case <-runner.started:
	case <-time.After(5 * time.Second):
		t.Fatal("first computation never started")
	}

	// Second cell: occupies the queue's single slot.
	go tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("espresso", "S1", "ooo")}})
	waitForQueued(t, s, 1)

	// Third distinct cell: queue full → 429.
	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("tomcatv", "S1", "ooo")}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == nil || eb.Error.Code != CodeOverload {
		t.Fatalf("overflow body = %s, want code %q", body, CodeOverload)
	}
}

// TestQueueOverflowReleasesJoinedFlights: a request rejected with 429
// part way through its cells drops the waiters it already registered, so
// a flight it joined is left with only its other clients.
func TestQueueOverflowReleasesJoinedFlights(t *testing.T) {
	runner := newFakeRunner(true)
	defer close(runner.release)
	s, ts := newTestServer(t, Config{runCell: runner.run, Workers: 1, QueueSize: 1})

	go tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("compress", "S1", "ooo")}})
	select {
	case <-runner.started:
	case <-time.After(5 * time.Second):
		t.Fatal("first computation never started")
	}
	queued := cellReq("espresso", "S1", "ooo")
	go tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{queued}})
	waitForQueued(t, s, 1)

	// Joins the queued flight, then overflows on its second cell.
	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{queued, cellReq("tomcatv", "S1", "ooo")}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", resp.StatusCode, body)
	}
	s.mu.Lock()
	f := s.flights[Fingerprint(mustCanon(t, queued))]
	waiters := -1
	if f != nil {
		waiters = f.waiters
	}
	s.mu.Unlock()
	if waiters != 1 {
		t.Fatalf("queued flight has %d waiters after the rejected request, want 1", waiters)
	}
}

// TestBudgetAbortErrorBody: a real simulation whose per-request budget
// expires returns a well-formed error body with code "budget" and the
// govern diagnostic snapshot.
func TestBudgetAbortErrorBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req := cellReq("compress", "N", "ooo")
	req.MaxInsts = 1000 // far below what compress needs
	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{req}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (per-cell error)\n%s", resp.StatusCode, body)
	}
	sr := decodeSim(t, body)
	we := sr.Results[0].Error
	if we == nil || we.Code != CodeBudget {
		t.Fatalf("result = %+v, want budget error", sr.Results[0])
	}
	if we.Snapshot == "" {
		t.Fatal("budget abort carried no diagnostic snapshot")
	}

	// Failed runs must not be cached: the same request computes again
	// (and fails again) rather than serving the error from the LRU.
	_, body = postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{req}})
	sr = decodeSim(t, body)
	if sr.Results[0].Cached {
		t.Fatal("errored run was served from cache")
	}
}

// TestClientCancellationCancelsFlight: when every request interested in a
// flight goes away, the flight's context is cancelled so the simulation
// aborts mid-run instead of running to completion for nobody.
func TestClientCancellationCancelsFlight(t *testing.T) {
	runner := newFakeRunner(true) // blocks until ctx cancellation (never released)
	s, ts := newTestServer(t, Config{runCell: runner.run})

	ctx, cancel := context.WithCancel(context.Background())
	buf, _ := json.Marshal(SimulateRequest{Cells: []Request{cellReq("ear", "S1", "ooo")}})
	httpReq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(httpReq)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-runner.started:
	case <-time.After(5 * time.Second):
		t.Fatal("computation never started")
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request unexpectedly succeeded")
	}
	// The flight must observe the cancellation and unwind (the runner
	// returns on ctx.Done, complete() publishes a canceled outcome).
	deadline := time.After(5 * time.Second)
	for s.met.Inflight.Load() != 0 {
		select {
		case <-deadline:
			t.Fatal("flight never unwound after its last waiter left")
		case <-time.After(time.Millisecond):
		}
	}
	if s.cache.len() != 0 {
		t.Fatal("cancelled computation entered the cache")
	}
}

// TestDrainRejectsNewWork: a draining server 503s simulation requests
// and reports the state on /healthz.
func TestDrainRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{runCell: newFakeRunner(false).run})
	s.Drain()

	resp, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("compress", "N", "ooo")}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503\n%s", resp.StatusCode, body)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hz map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "draining" {
		t.Fatalf("healthz status = %v, want draining", hz["status"])
	}
}

// TestMetricsEndpoint: GET /metrics serves the shared registry with both
// serving-layer and simulator metrics present.
func TestMetricsEndpoint(t *testing.T) {
	runner := newFakeRunner(false)
	_, ts := newTestServer(t, Config{runCell: runner.run})
	postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("compress", "N", "ooo")}})
	// Experiment cells count like simulate cells, globally and per tenant.
	if resp, body := postJSON(t, ts.URL+"/v1/experiment", ExperimentRequest{
		Benchmarks: []string{"compress"}, Plans: []string{"N", "S1"}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("experiment: status %d\n%s", resp.StatusCode, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{MetricRequests, MetricCells, MetricMisses, "sim_instrs"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("metric %q missing from /metrics", name)
		}
	}
	if snap.Counters[MetricRequests] == 0 {
		t.Error("serve_requests_total did not count")
	}
	anon := TenantMetricName(MetricCells, AnonymousTenant)
	if global := snap.Counters[MetricCells]; global != 5 || snap.Counters[anon] != global {
		t.Errorf("%s = %d, %s = %d, want both 5 (1 simulate + 4 experiment cells)",
			MetricCells, global, anon, snap.Counters[anon])
	}
}

// TestFreeWorkerStartsQueuedFlight: a cell submitted while another is
// still running starts on the next free worker; it does not wait for the
// running cell to finish.
func TestFreeWorkerStartsQueuedFlight(t *testing.T) {
	runner := newFakeRunner(false)
	heldStarted, hold := make(chan struct{}), make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 2, runCell: func(ctx context.Context, c Request) outcome {
		if c.Benchmark == "ear" {
			close(heldStarted)
			select {
			case <-hold:
			case <-ctx.Done():
			}
			return outcome{run: &stats.Run{}}
		}
		return runner.run(ctx, c)
	}})
	releaseHold := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(releaseHold) // a failed test must not leave the request open

	heldDone := make(chan []byte, 1)
	go func() {
		_, body, _ := tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("ear", "S1", "ooo")}})
		heldDone <- body
	}()
	select {
	case <-heldStarted:
	case <-time.After(5 * time.Second):
		t.Fatal("held cell never started")
	}

	done := make(chan []byte, 1)
	go func() {
		_, body, _ := tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("compress", "S1", "ooo")}})
		done <- body
	}()
	select {
	case <-runner.started:
	case <-time.After(5 * time.Second):
		t.Fatal("second cell waited for the held one: the free worker never started it")
	}
	if sr := decodeSim(t, <-done); sr.Results[0].Error != nil || sr.Results[0].Run == nil {
		t.Fatalf("second cell = %+v, want success", sr.Results[0])
	}
	releaseHold()
	if sr := decodeSim(t, <-heldDone); sr.Results[0].Error != nil || sr.Results[0].Run == nil {
		t.Fatalf("held cell = %+v, want success", sr.Results[0])
	}
}

// TestRequestCellsStartTogether: one request's cells are all submitted
// before any is awaited, so with enough workers they run concurrently,
// not serially per cell.
func TestRequestCellsStartTogether(t *testing.T) {
	runner := newFakeRunner(true)
	s, ts := newTestServer(t, Config{Workers: 3, runCell: runner.run})
	releaseRunner := sync.OnceFunc(func() { close(runner.release) })
	t.Cleanup(releaseRunner) // a failed test must not leave the server waiting

	done := make(chan []byte, 1)
	go func() {
		_, body, _ := tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{
			cellReq("compress", "S1", "ooo"),
			cellReq("espresso", "S1", "ooo"),
			cellReq("tomcatv", "S1", "ooo"),
		}})
		done <- body
	}()

	// All three computations start before any completes.
	for i := 0; i < 3; i++ {
		select {
		case <-runner.started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 3 cells started concurrently", i)
		}
	}
	releaseRunner()
	sr := decodeSim(t, <-done)
	if len(sr.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(sr.Results))
	}
	seen := map[string]bool{}
	for i, r := range sr.Results {
		if r.Error != nil || r.Run == nil {
			t.Fatalf("result %d = %+v, want success", i, r)
		}
		if seen[r.Key] {
			t.Fatalf("duplicate key %q across distinct cells", r.Key)
		}
		seen[r.Key] = true
	}
	if got := s.sim.Instrs.Load(); got != 0 {
		t.Fatalf("fake runner leaked sim metrics: sim_instrs = %d", got)
	}
}

// TestBurstStartsConcurrently: K <= Workers cells pushed back to back
// all start before any finishes, round after round. Where the pushes
// coalesce into one ready signal this rests on each woken worker
// re-arming it, which TestFairQueueBurstWakesEveryWaiter pins.
func TestBurstStartsConcurrently(t *testing.T) {
	const workers = 4
	var (
		mu      sync.Mutex
		release chan struct{}
	)
	started := make(chan struct{}, workers)
	_, ts := newTestServer(t, Config{Workers: workers, runCell: func(ctx context.Context, c Request) outcome {
		mu.Lock()
		r := release
		mu.Unlock()
		started <- struct{}{}
		select {
		case <-r:
		case <-ctx.Done():
		}
		return outcome{run: &stats.Run{}}
	}})
	for round, k := range []int{workers, 2, workers, 3, workers} {
		r := make(chan struct{})
		mu.Lock()
		release = r
		mu.Unlock()
		cells := make([]Request, k)
		for i := range cells {
			cells[i] = cellReq("compress", "S1", "ooo")
			cells[i].MaxInsts = uint64(1_000_000 + 1000*round + i) // distinct flights
		}
		done := make(chan []byte, 1)
		go func() {
			_, body, _ := tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: cells})
			done <- body
		}()
		for i := 0; i < k; i++ {
			select {
			case <-started:
			case <-time.After(5 * time.Second):
				close(r)
				t.Fatalf("round %d: only %d of %d burst cells started with %d idle workers", round, i, k, workers)
			}
		}
		close(r)
		for i, res := range decodeSim(t, <-done).Results {
			if res.Error != nil || res.Run == nil {
				t.Fatalf("round %d result %d = %+v, want success", round, i, res)
			}
		}
	}
}

// TestShutdownFailsQueuedFlights: Close while every worker is busy and
// work is queued completes each queued flight exactly once with a
// canceled outcome, and returns only after every worker has exited.
func TestShutdownFailsQueuedFlights(t *testing.T) {
	if !errors.Is(errShutdown, govern.ErrCanceled) {
		t.Fatal("errShutdown must wrap govern.ErrCanceled")
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const queuedN = 3
			baseline, baseWorkers := runtime.NumGoroutine(), runningWorkers()
			runner := newFakeRunner(true)
			s := New(Config{Workers: workers, QueueSize: 8, runCell: func(ctx context.Context, c Request) outcome {
				out := runner.run(ctx, c)
				time.Sleep(20 * time.Millisecond) // a governor notices cancellation at its next poll
				return out
			}})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			post := func(i int, out chan<- []byte) {
				machine := []string{MachineOOO, MachineInOrder}[i%2]
				_, body, _ := tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{
					cellReq([]string{"compress", "espresso", "tomcatv", "ear"}[i/2], "S1", machine)}})
				out <- body
			}
			// Hold every worker, so that the cells after them really queue.
			held := make(chan []byte, workers)
			for i := 0; i < workers; i++ {
				go post(i, held)
			}
			for i := 0; i < workers; i++ {
				select {
				case <-runner.started:
				case <-time.After(5 * time.Second):
					t.Fatalf("only %d of %d workers busy", i, workers)
				}
			}
			queued := make(chan []byte, queuedN)
			for i := workers; i < workers+queuedN; i++ {
				go post(i, queued)
			}
			waitForQueued(t, s, queuedN)

			s.Close() // cancels the held runners (ctx) and fails the queue
			if got := runningWorkers(); got != baseWorkers {
				t.Fatalf("Close returned with %d workers still running", got-baseWorkers)
			}
			for _, ch := range []chan []byte{queued, held} {
				for i := 0; i < cap(ch); i++ {
					var body []byte
					select {
					case body = <-ch:
					case <-time.After(5 * time.Second):
						t.Fatal("a request never got its answer after Close")
					}
					sr := decodeSim(t, body)
					if we := sr.Results[0].Error; we == nil || we.Code != CodeCanceled {
						t.Fatalf("outcome = %+v, want canceled", sr.Results[0])
					}
				}
			}
			// Every flight completed once, with an error; the queued ones
			// never reached the runner.
			if got := s.met.CellErrors.Load(); got != uint64(workers+queuedN) {
				t.Fatalf("%d flights completed with an error, want %d", got, workers+queuedN)
			}
			if got := runner.total(); got != workers {
				t.Fatalf("runner invoked %d times, want %d (queued flights must not compute)", got, workers)
			}

			ts.Close()
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			deadline := time.After(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				select {
				case <-deadline:
					t.Fatalf("%d goroutines after shutdown, baseline %d", runtime.NumGoroutine(), baseline)
				case <-time.After(time.Millisecond):
				}
			}
		})
	}
}

// runningWorkers counts the goroutines running (*Server).work.
func runningWorkers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("serve.(*Server).work("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestOversizedBodyIs413: a body above maxBodyBytes is reported as 413
// (entity too large), not mislabelled as a 400 JSON syntax error, and so
// is a raw trace hop body above it. The server is node 0 of a two-node
// cluster, so the raw hop is authenticated.
func TestOversizedBodyIs413(t *testing.T) {
	runner := newFakeRunner(false)
	nodes := newTestClusterNodes(t, 2, func(int) Config { return Config{runCell: runner.run} })
	ts := nodes[0].ts

	big := []byte(`{"cells": [{"kind":"cell","benchmark":"` + strings.Repeat("x", maxBodyBytes) + `"}]}`)
	raw := appendTraceHop(nil, Request{Kind: KindTrace, Machine: MachineOOO, Trace: strings.Repeat("x", maxBodyBytes)})
	for _, tc := range []struct {
		path string
		body []byte
		hdr  map[string]string
	}{
		{"/v1/simulate", big, nil},
		{"/v1/experiment", big, nil},
		{"/v1/simulate", raw, rawHop},
	} {
		resp, _ := postBody(t, ts.URL+tc.path, tc.body, tc.hdr)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body (headers %v): status = %d, want 413", tc.path, tc.hdr, resp.StatusCode)
		}
	}
	if runner.total() != 0 {
		t.Fatalf("oversized requests reached the runner %d times", runner.total())
	}
}

// TestReadBodyContentLengthIsOnlyAHint: a body buffer is sized by what
// arrives. A Content-Length claiming 64 MB over a 10-byte body costs a
// small buffer, and an honest length makes the last doubling exact.
func TestReadBodyContentLengthIsOnlyAHint(t *testing.T) {
	for _, tc := range []struct {
		name   string
		body   string
		claim  int64
		maxCap int
	}{
		{"false-claim", `{"cells":[]}`, maxBodyBytes, 512},
		{"honest", strings.Repeat("x", 100_000), 100_000, 100_001},
		{"no-length", strings.Repeat("x", 100_000), -1, 131_072},
	} {
		r := httptest.NewRequest("POST", "/v1/simulate", strings.NewReader(tc.body))
		r.ContentLength = tc.claim
		buf, err := readBody(httptest.NewRecorder(), r)
		if err != nil || string(buf) != tc.body {
			t.Fatalf("%s: read %d bytes, %v", tc.name, len(buf), err)
		}
		if cap(buf) > tc.maxCap {
			t.Errorf("%s: %d-byte body took a %d-byte buffer, want at most %d", tc.name, len(buf), cap(buf), tc.maxCap)
		}
	}
}

// TestExperimentGridBounds: custom /v1/experiment grids are bounded —
// a cross product above MaxExperimentCells and duplicated benchmark or
// plan names are rejected with 400 before any work is queued.
func TestExperimentGridBounds(t *testing.T) {
	runner := newFakeRunner(false)
	_, ts := newTestServer(t, Config{runCell: runner.run, MaxExperimentCells: 8})

	cases := []struct {
		name string
		req  ExperimentRequest
		want string
	}{
		{
			// 3 benchmarks × 2 machines × 2 plans = 12 > 8.
			"grid-too-large",
			ExperimentRequest{Benchmarks: []string{"compress", "espresso", "tomcatv"}, Plans: []string{"N", "S1"}},
			"above limit",
		},
		{
			"duplicate-benchmark",
			ExperimentRequest{Benchmarks: []string{"compress", "compress"}, Plans: []string{"N", "S1"}},
			"duplicate benchmark",
		},
		{
			// "S1/branch" canonicalizes to the "S1" label: a duplicate
			// even though the spellings differ.
			"duplicate-plan-alias",
			ExperimentRequest{Benchmarks: []string{"compress"}, Plans: []string{"N", "S1", "S1/branch"}},
			"duplicate plan",
		},
		{
			// No baseline named and no "N" bar: experiments.BaselineIndex's
			// verdict, the harness's own rule.
			"no-default-baseline",
			ExperimentRequest{Benchmarks: []string{"compress"}, Plans: []string{"S1", "CC1"}},
			`no "N" plan among [S1 CC1] to normalise against`,
		},
		{
			"baseline-not-in-plans",
			ExperimentRequest{Benchmarks: []string{"compress"}, Plans: []string{"N", "S1"}, Baseline: "S2"},
			`baseline plan "S2" not among [N S1]`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/experiment", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400\n%s", resp.StatusCode, body)
			}
			var eb errorBody
			decodeTo(t, body, &eb)
			if eb.Error == nil || eb.Error.Code != CodeInvalid || !strings.Contains(eb.Error.Message, tc.want) {
				t.Fatalf("error = %+v, want code %q containing %q", eb.Error, CodeInvalid, tc.want)
			}
		})
	}
	if runner.total() != 0 {
		t.Fatalf("rejected experiments reached the runner %d times", runner.total())
	}
}

// TestStaleCancelledFlightNotJoined: once the last waiter of a queued
// flight leaves, the flight leaves the index too — a later identical
// request starts a fresh computation instead of joining the dead flight
// and being served a cancellation caused by another client's disconnect.
func TestStaleCancelledFlightNotJoined(t *testing.T) {
	runner := newFakeRunner(true)
	s, ts := newTestServer(t, Config{runCell: runner.run, Workers: 1, QueueSize: 4})

	// Cell A: taken by the single worker, blocks inside the runner.
	go tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("compress", "S1", "ooo")}})
	select {
	case <-runner.started:
	case <-time.After(5 * time.Second):
		t.Fatal("first computation never started")
	}

	// Cell B: queued behind A; its only client disconnects.
	ctx, cancel := context.WithCancel(context.Background())
	buf, _ := json.Marshal(SimulateRequest{Cells: []Request{cellReq("espresso", "S1", "ooo")}})
	httpReq, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(httpReq)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitForQueued(t, s, 1)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request unexpectedly succeeded")
	}
	// The abandoned flight must leave the index even though it is still
	// sitting in the queue (the only worker is busy with A).
	deadline := time.After(5 * time.Second)
	for s.met.Inflight.Load() != 1 {
		select {
		case <-deadline:
			t.Fatalf("abandoned flight still indexed (inflight = %d)", s.met.Inflight.Load())
		case <-time.After(time.Millisecond):
		}
	}

	// A fresh request for B must recompute, not inherit the cancellation.
	done := make(chan []byte, 1)
	go func() {
		_, body, _ := tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("espresso", "S1", "ooo")}})
		done <- body
	}()
	// Wait until the retry's flight is registered, then unblock the pool.
	deadline = time.After(5 * time.Second)
	for s.met.Inflight.Load() != 2 {
		select {
		case <-deadline:
			t.Fatal("retry never registered a fresh flight")
		case <-time.After(time.Millisecond):
		}
	}
	close(runner.release)
	sr := decodeSim(t, <-done)
	if sr.Results[0].Error != nil || sr.Results[0].Run == nil {
		t.Fatalf("retry after stale flight = %+v, want success", sr.Results[0])
	}
	if got := runner.count(mustCanon(t, cellReq("espresso", "S1", "ooo"))); got != 1 {
		t.Fatalf("cell B simulated %d times, want 1 (stale flight skipped, retry computed)", got)
	}
}

// TestExperimentFailureReleasesRemainingFlights: when one experiment
// cell fails, the handler leaves every not-yet-awaited flight so the
// abandoned simulations are cancelled instead of running for nobody.
func TestExperimentFailureReleasesRemainingFlights(t *testing.T) {
	failCell := mustCanon(t, cellReq("compress", "N", "ooo"))
	runner := newFakeRunner(true)
	bad := canonicalString(failCell)
	cfg := Config{Workers: 4, runCell: func(ctx context.Context, c Request) outcome {
		if canonicalString(c) == bad {
			return outcome{err: fmt.Errorf("synthetic cell failure")}
		}
		return runner.run(ctx, c)
	}}
	s, ts := newTestServer(t, cfg)

	resp, body := postJSON(t, ts.URL+"/v1/experiment", ExperimentRequest{
		Benchmarks: []string{"compress", "espresso"}, Plans: []string{"N", "S1"}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500\n%s", resp.StatusCode, body)
	}
	// Every remaining flight was left by the handler: their governors are
	// cancelled, the blocked runners return, and the index drains to zero
	// — without the release channel ever opening.
	deadline := time.After(5 * time.Second)
	for s.met.Inflight.Load() != 0 {
		select {
		case <-deadline:
			t.Fatalf("abandoned flights never unwound (inflight = %d)", s.met.Inflight.Load())
		case <-time.After(time.Millisecond):
		}
	}
}

func mustCanon(t *testing.T, req Request) Request {
	t.Helper()
	canon, err := Canonicalize(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

func waitForQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for s.queue.depth() < n {
		select {
		case <-deadline:
			t.Fatalf("queue never reached depth %d", n)
		case <-time.After(time.Millisecond):
		}
	}
}
