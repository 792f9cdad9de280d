package serve

// The chaos lane: informd under a failing filesystem, restarts, and
// hostile tenants. The contracts pinned here are the ones §13 of
// DESIGN.md promises: a store fault demotes the daemon to RAM-only but
// never wrong answers; a corrupt entry is quarantined and recomputed; a
// restarted daemon serves its old results without re-simulating; and one
// tenant's backlog cannot starve another's request.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"informing/internal/faults"
	"informing/internal/store"
)

// openTestStore opens a serve-compatible store in a fresh directory.
func openTestStore(t *testing.T, dir string, fs store.FS) *store.Store {
	t.Helper()
	opts := store.Options{Dir: dir, Version: CodeVersion, Logf: t.Logf}
	if fs != nil {
		opts.FS = fs
	}
	st, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func postCells(t *testing.T, url string, cells ...Request) SimulateResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/simulate", SimulateRequest{Cells: cells})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	sr := decodeSim(t, body)
	for i, cr := range sr.Results {
		if cr.Error != nil {
			t.Fatalf("cell %d failed: %+v", i, cr.Error)
		}
	}
	return sr
}

// TestStoreWarmRestart is the in-process restart contract: a second
// server generation opening the same store directory serves the first
// generation's results as cache hits, calling the runner zero times.
func TestStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cells := []Request{
		cellReq("compress", "N", MachineOOO),
		cellReq("compress", "S1", MachineInOrder),
		cellReq("espresso", "CC1", MachineOOO),
	}

	gen1 := newFakeRunner(false)
	s1 := New(Config{runCell: gen1.run, Store: openTestStore(t, dir, nil)})
	ts1 := httptest.NewServer(s1.Handler())
	first := postCells(t, ts1.URL, cells...)
	ts1.Close()
	s1.Close()
	if gen1.total() != len(cells) {
		t.Fatalf("gen1 computed %d cells, want %d", gen1.total(), len(cells))
	}

	// Generation 2: fresh process state, same directory. Every repeat is
	// a hit (read-through warms the LRU) and nothing is computed.
	gen2 := newFakeRunner(false)
	s2, ts2 := newTestServer(t, Config{runCell: gen2.run, Store: openTestStore(t, dir, nil)})
	second := postCells(t, ts2.URL, cells...)
	for i, cr := range second.Results {
		if !cr.Cached {
			t.Errorf("cell %d not served from store after restart", i)
		}
		if cr.Key != first.Results[i].Key || *cr.Run != *first.Results[i].Run {
			t.Errorf("cell %d payload changed across restart:\n gen1: %+v\n gen2: %+v",
				i, *first.Results[i].Run, *cr.Run)
		}
	}
	if gen2.total() != 0 {
		t.Errorf("gen2 computed %d cells, want 0 (warm restart)", gen2.total())
	}
	if hits := s2.met.StoreHits.Load(); hits != uint64(len(cells)) {
		t.Errorf("serve_store_hits = %d, want %d", hits, len(cells))
	}
}

// TestStoreDegradeToRAM injects ENOSPC on every entry write: the daemon
// must keep answering correctly from RAM, latch the degraded state
// exactly once, and report it on /healthz.
func TestStoreDegradeToRAM(t *testing.T) {
	ffs := faults.NewFS(faults.FSPlan{Seed: 1, Rules: []faults.FSRule{
		{Kind: faults.FSNoSpace, Ops: faults.FSWrite, PathContains: ".res", EveryN: 1},
	}})
	runner := newFakeRunner(false)
	s, ts := newTestServer(t, Config{runCell: runner.run, Store: openTestStore(t, t.TempDir(), ffs)})

	a := cellReq("compress", "N", MachineOOO)
	b := cellReq("espresso", "N", MachineOOO)
	postCells(t, ts.URL, a) // first write fails -> degrade
	if !s.storeDegraded.Load() {
		t.Fatal("store write fault did not degrade the server")
	}
	if got := s.met.StoreDegraded.Load(); got != 1 {
		t.Errorf("serve_store_degraded = %d, want 1", got)
	}

	// Degraded, not broken: new cells compute, repeats hit the RAM cache,
	// and the degrade latch fires only once.
	postCells(t, ts.URL, b)
	sr := postCells(t, ts.URL, a)
	if !sr.Results[0].Cached {
		t.Error("repeat cell not served from RAM cache while degraded")
	}
	if got := s.met.StoreDegraded.Load(); got != 1 {
		t.Errorf("serve_store_degraded = %d after more traffic, want still 1", got)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status string `json:"status"`
		Store  struct {
			State string `json:"state"`
		} `json:"store"`
	}
	var buf [4096]byte
	n, _ := resp.Body.Read(buf[:])
	decodeTo(t, buf[:n], &hz)
	if hz.Status != "ok" || hz.Store.State != "degraded" {
		t.Errorf("healthz = status %q store %q, want ok/degraded", hz.Status, hz.Store.State)
	}
}

// TestStoreCorruptionRecompute flips bits in a stored entry on disk: the
// next generation must detect the bad checksum, quarantine the file,
// recompute — and must NOT degrade (the filesystem works; the data lied).
func TestStoreCorruptionRecompute(t *testing.T) {
	dir := t.TempDir()
	cell := cellReq("compress", "N", MachineOOO)

	gen1 := newFakeRunner(false)
	s1 := New(Config{runCell: gen1.run, Store: openTestStore(t, dir, nil)})
	ts1 := httptest.NewServer(s1.Handler())
	first := postCells(t, ts1.URL, cell)
	ts1.Close()
	s1.Close()

	// Corrupt the payload's last byte (the header's checksum now lies).
	path := filepath.Join(dir, first.Results[0].Key+".res")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	gen2 := newFakeRunner(false)
	s2, ts2 := newTestServer(t, Config{runCell: gen2.run, Store: openTestStore(t, dir, nil)})
	second := postCells(t, ts2.URL, cell)
	if second.Results[0].Cached {
		t.Error("corrupt entry served as a cache hit")
	}
	if *second.Results[0].Run != *first.Results[0].Run {
		t.Error("recomputed payload differs from original")
	}
	if gen2.total() != 1 {
		t.Errorf("gen2 computed %d cells, want 1 (recompute)", gen2.total())
	}
	if s2.storeDegraded.Load() {
		t.Error("corruption degraded the server; policy is quarantine+recompute")
	}
	q, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(q) != 1 {
		t.Errorf("quarantine dir has %d entries (err %v), want 1", len(q), err)
	}
}

// TestCacheStoreRace hammers the submit path with a tiny LRU over a live
// store, so read-through, write-behind, eviction and coalescing all
// interleave. Run with -race; the correctness assertion is that every
// response carries its own request's fingerprint and payload.
func TestCacheStoreRace(t *testing.T) {
	runner := newFakeRunner(false)
	_, ts := newTestServer(t, Config{
		runCell:      runner.run,
		CacheEntries: 2, // constant eviction pressure
		Store:        openTestStore(t, t.TempDir(), nil),
	})

	cells := []Request{
		cellReq("compress", "N", MachineOOO),
		cellReq("compress", "S1", MachineOOO),
		cellReq("compress", "CC1", MachineOOO),
		cellReq("espresso", "N", MachineInOrder),
		cellReq("espresso", "S1", MachineInOrder),
		cellReq("tomcatv", "N", MachineOOO),
	}
	wants := make([]Request, len(cells))
	for i, c := range cells {
		wants[i] = mustCanon(t, c)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := cells[(g+i)%len(cells)]
				want := wants[(g+i)%len(cells)]
				resp, body, err := tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{c}})
				if err != nil || resp.StatusCode != 200 {
					errs <- "request failed: " + string(body)
					return
				}
				var sr SimulateResponse
				if err := json.Unmarshal(body, &sr); err != nil {
					errs <- err.Error()
					return
				}
				cr := sr.Results[0]
				if cr.Error != nil {
					errs <- cr.Error.Message
					return
				}
				if cr.Key != Fingerprint(want) {
					errs <- "response keyed to a different request's fingerprint"
					return
				}
				if cr.Run.Cycles != int64(len(canonicalString(want))) {
					errs <- "response carries another cell's payload"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// ---- tenants ----

func testTenants(t *testing.T, file TenantsFile) *TenantSet {
	t.Helper()
	ts, err := NewTenantSet(file)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestTenantRateLimit: a tenant above its admission rate gets 429 with
// code rate-limited and an honest Retry-After; the anonymous tier is
// unaffected; per-tenant metrics record the rejection.
func TestTenantRateLimit(t *testing.T) {
	tenants := testTenants(t, TenantsFile{Tenants: []TenantSpec{
		{Name: "alice", Key: "k-alice", RatePerSec: 1, Burst: 2},
	}})
	now := time.Unix(1000, 0)
	tenants.now = func() time.Time { return now }

	runner := newFakeRunner(false)
	s, ts := newTestServer(t, Config{runCell: runner.run, Tenants: tenants})

	post := func(key string, cells ...Request) (*http.Response, []byte) {
		t.Helper()
		req := SimulateRequest{Cells: cells}
		buf, _ := json.Marshal(req)
		hr, err := http.NewRequest("POST", ts.URL+"/v1/simulate", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			hr.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		return resp, out.Bytes()
	}

	// Burst of 2 admits two cells, then the bucket is empty.
	resp, body := post("k-alice", cellReq("compress", "N", MachineOOO), cellReq("compress", "S1", MachineOOO))
	if resp.StatusCode != 200 {
		t.Fatalf("within-burst request: status %d\n%s", resp.StatusCode, body)
	}
	resp, body = post("k-alice", cellReq("compress", "CC1", MachineOOO), cellReq("espresso", "N", MachineOOO))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate request: status %d, want 429\n%s", resp.StatusCode, body)
	}
	var eb errorBody
	decodeTo(t, body, &eb)
	if eb.Error.Code != CodeRateLimited {
		t.Errorf("error code %q, want %q", eb.Error.Code, CodeRateLimited)
	}
	// Deficit is 2 cells at 1/s -> honest Retry-After of 2s.
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\" (2-cell deficit at 1 cell/s)", ra)
	}
	if n := s.sim.Reg.Counter(TenantMetricName(MetricRateLimited, "alice")).Load(); n != 1 {
		t.Errorf("per-tenant rate-limited counter = %d, want 1", n)
	}

	// Anonymous rides its own (unlimited) bucket.
	resp, body = post("", cellReq("tomcatv", "N", MachineOOO))
	if resp.StatusCode != 200 {
		t.Fatalf("anonymous request: status %d\n%s", resp.StatusCode, body)
	}

	// The clock advances 2s: alice's deficit has refilled, as promised.
	now = now.Add(2 * time.Second)
	resp, body = post("k-alice", cellReq("compress", "CC1", MachineOOO), cellReq("espresso", "N", MachineOOO))
	if resp.StatusCode != 200 {
		t.Fatalf("post-wait request: status %d, Retry-After lied\n%s", resp.StatusCode, body)
	}
}

// TestTenantNotChargedForInvalidExperiment: an experiment rejected with
// 400 (a budget above the server cap) leaves the tenant's bucket full, so
// the tenant's next valid request of a full burst is admitted. Every
// experiment cell is canonicalized before admission.
func TestTenantNotChargedForInvalidExperiment(t *testing.T) {
	tenants := testTenants(t, TenantsFile{Tenants: []TenantSpec{
		{Name: "alice", Key: "k-alice", RatePerSec: 0.001, Burst: 4},
	}})
	now := time.Unix(1000, 0)
	tenants.now = func() time.Time { return now }
	runner := newFakeRunner(false)
	_, ts := newTestServer(t, Config{runCell: runner.run, Tenants: tenants, MaxInstsCap: 1000})
	key := map[string]string{"X-API-Key": "k-alice"}

	resp, body := postJSONHeaders(t, ts.URL+"/v1/experiment", ExperimentRequest{
		Benchmarks: []string{"compress"}, Plans: []string{"N", "S1"}, MaxInsts: 2000}, key)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap experiment: status %d, want 400\n%s", resp.StatusCode, body)
	}

	var cells []Request
	for _, m := range []string{MachineOOO, MachineInOrder} {
		for _, plan := range []string{"N", "S1"} {
			c := cellReq("compress", plan, m)
			c.MaxInsts = 1000
			cells = append(cells, c)
		}
	}
	resp, body = postJSONHeaders(t, ts.URL+"/v1/simulate", SimulateRequest{Cells: cells}, key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full-burst request after a rejected experiment: status %d, want 200\n%s", resp.StatusCode, body)
	}
}

// TestTenantAuth: unknown keys are 401 unauthorized; with DenyAnonymous,
// keyless requests are too.
func TestTenantAuth(t *testing.T) {
	tenants := testTenants(t, TenantsFile{
		Tenants:       []TenantSpec{{Name: "alice", Key: "k-alice"}},
		DenyAnonymous: true,
	})
	runner := newFakeRunner(false)
	_, ts := newTestServer(t, Config{runCell: runner.run, Tenants: tenants})

	for name, hdr := range map[string]func(*http.Request){
		"unknown key": func(r *http.Request) { r.Header.Set("X-API-Key", "wrong") },
		"keyless":     func(*http.Request) {},
		"bad bearer":  func(r *http.Request) { r.Header.Set("Authorization", "Bearer nope") },
	} {
		buf, _ := json.Marshal(SimulateRequest{Cells: []Request{cellReq("compress", "N", MachineOOO)}})
		hr, _ := http.NewRequest("POST", ts.URL+"/v1/simulate", bytes.NewReader(buf))
		hdr(hr)
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s: status %d, want 401", name, resp.StatusCode)
			continue
		}
		var eb errorBody
		decodeTo(t, out.Bytes(), &eb)
		if eb.Error.Code != CodeUnauthorized {
			t.Errorf("%s: code %q, want %q", name, eb.Error.Code, CodeUnauthorized)
		}
	}
	if runner.total() != 0 {
		t.Errorf("unauthorized requests reached the runner (%d calls)", runner.total())
	}

	// Auth precedes validation: an unknown key with a garbage body is 401,
	// not 400 — an unauthenticated client learns nothing about the schema.
	hr, _ := http.NewRequest("POST", ts.URL+"/v1/simulate", strings.NewReader("{not json"))
	hr.Header.Set("X-API-Key", "wrong")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unknown key + invalid body: status %d, want 401", resp.StatusCode)
	}

	// Bearer form of a valid key works.
	buf, _ := json.Marshal(SimulateRequest{Cells: []Request{cellReq("compress", "N", MachineOOO)}})
	hr, _ = http.NewRequest("POST", ts.URL+"/v1/simulate", bytes.NewReader(buf))
	hr.Header.Set("Authorization", "Bearer k-alice")
	resp, err = http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("bearer auth: status %d, want 200", resp.StatusCode)
	}
}

// TestWeightedFairDequeue: with three of alice's cells queued ahead of
// bob's one, the weighted-fair queue starts bob's within two pops —
// a plain FIFO would start it last.
func TestWeightedFairDequeue(t *testing.T) {
	tenants := testTenants(t, TenantsFile{Tenants: []TenantSpec{
		{Name: "alice", Key: "k-alice"},
		{Name: "bob", Key: "k-bob"},
	}})
	runner := newFakeRunner(true)
	s, ts := newTestServer(t, Config{
		runCell: runner.run, Tenants: tenants,
		Workers: 1, QueueSize: 16,
	})

	post := func(key string, c Request) {
		buf, _ := json.Marshal(SimulateRequest{Cells: []Request{c}})
		hr, _ := http.NewRequest("POST", ts.URL+"/v1/simulate", bytes.NewReader(buf))
		hr.Header.Set("X-API-Key", key)
		go http.DefaultClient.Do(hr) //nolint:errcheck // resolved via runner.started
	}

	// Occupy the single worker so everything after queues up.
	post("k-alice", cellReq("tomcatv", "N", MachineOOO))
	<-runner.started

	aliceCells := []Request{
		cellReq("compress", "N", MachineOOO),
		cellReq("compress", "S1", MachineOOO),
		cellReq("compress", "CC1", MachineOOO),
	}
	for _, c := range aliceCells {
		post("k-alice", c)
	}
	waitForQueued(t, s, 3)
	bobCell := cellReq("espresso", "N", MachineOOO)
	post("k-bob", bobCell)
	waitForQueued(t, s, 4)

	close(runner.release) // drain: pops now complete immediately
	bobKey := canonicalString(mustCanon(t, bobCell))
	for i := 0; i < 4; i++ {
		select {
		case key := <-runner.started:
			if key == bobKey {
				if i > 1 {
					t.Errorf("bob's cell started at position %d behind alice's backlog, want within first 2", i)
				}
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued cells never started")
		}
	}
	t.Fatal("bob's cell never started")
}

// TestOverloadRetryAfterComputed: a queue-overflow 429 carries a
// Retry-After computed from queue depth and per-flight service time (here:
// ⌈(1 queued + 1) / 1 worker⌉ = 2 flights at the 1s prior = "2"), not a
// hardcoded "1".
func TestOverloadRetryAfterComputed(t *testing.T) {
	runner := newFakeRunner(true)
	s, ts := newTestServer(t, Config{runCell: runner.run, QueueSize: 1, Workers: 1})
	defer close(runner.release)

	// One cell occupies the single worker, a second fills the
	// one-slot queue; the third overflows.
	go tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("compress", "N", MachineOOO)}}) //nolint:errcheck
	<-runner.started
	go tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("compress", "S1", MachineOOO)}}) //nolint:errcheck
	waitForQueued(t, s, 1)

	over, body, err := tryPostJSON(ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{cellReq("compress", "CC1", MachineOOO)}})
	if err != nil {
		t.Fatal(err)
	}
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429\n%s", over.StatusCode, body)
	}
	var eb errorBody
	decodeTo(t, body, &eb)
	if eb.Error.Code != CodeOverload {
		t.Errorf("code %q, want %q", eb.Error.Code, CodeOverload)
	}
	ra, err := strconv.Atoi(over.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Fatalf("Retry-After %q outside [1,30]", over.Header.Get("Retry-After"))
	}
	if ra != 2 {
		t.Errorf("Retry-After = %d, want 2 (2 flights at the 1s prior)", ra)
	}
}

// TestReadyz: /readyz turns ready once the workers run, and turns
// not-ready again on drain while /healthz stays 200 (liveness).
func TestReadyz(t *testing.T) {
	runner := newFakeRunner(false)
	s, ts := newTestServer(t, Config{runCell: runner.run})

	deadline := time.After(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == 200 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("/readyz never became ready")
		case <-time.After(time.Millisecond):
		}
	}

	s.Drain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("/healthz while draining: status %d, want 200 (liveness)", resp.StatusCode)
	}
}

// TestDifferentialWarmRestartGrid is the heavyweight restart proof on the
// 18-cell golden grid with the REAL simulators: generation 2 serves the
// whole grid byte-identically with a sim_instrs delta of exactly zero.
func TestDifferentialWarmRestartGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden grid simulation is heavy")
	}
	dir := t.TempDir()
	cells := diffGrid()

	s1 := New(Config{Store: openTestStore(t, dir, nil)})
	ts1 := httptest.NewServer(s1.Handler())
	resp, body := postJSON(t, ts1.URL+"/v1/simulate", SimulateRequest{Cells: cells})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	first := decodeSim(t, body)
	for i, cr := range first.Results {
		if cr.Error != nil {
			t.Fatalf("cell %+v failed: %+v", cells[i], cr.Error)
		}
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Config{Store: openTestStore(t, dir, nil)})
	instrsBefore := s2.Sim().Instrs.Load()
	_, body2 := postJSON(t, ts2.URL+"/v1/simulate", SimulateRequest{Cells: cells})
	second := decodeSim(t, body2)
	for i, cr := range second.Results {
		if cr.Error != nil || !cr.Cached {
			t.Fatalf("restarted cell %+v not served from store: %+v", cells[i], cr)
		}
		if *cr.Run != *first.Results[i].Run {
			t.Errorf("cell %+v payload changed across restart", cells[i])
		}
	}
	if delta := s2.Sim().Instrs.Load() - instrsBefore; delta != 0 {
		t.Errorf("warm restart simulated %d instructions, want exactly 0", delta)
	}
}
