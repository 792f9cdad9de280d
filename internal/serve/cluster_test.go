package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"informing/internal/cluster"
	"informing/internal/experiments"
	"informing/internal/workload"
)

// In-process cluster harness. Each node is a full Server behind a real
// httptest listener; peer URLs are only known after the listeners exist,
// so the listeners start on an indirection that resolves the node's
// Server at request time (under a mutex — requests never arrive before
// setup finishes, but -race rightly demands the synchronisation).
type clusterNode struct {
	mu  sync.Mutex
	srv *Server
	ts  *httptest.Server
}

// testClusterSecret is the shared cluster token every in-process test
// node is configured with; requests forging the forwarded headers
// without it must be refused.
const testClusterSecret = "test-cluster-secret"

func (n *clusterNode) server() *Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// newTestClusterNodes boots size informd nodes sharing one static peer
// list. mkCfg supplies each node's Config (Cluster is filled in here).
func newTestClusterNodes(t *testing.T, size int, mkCfg func(i int) Config) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, size)
	urls := make([]string, size)
	for i := range nodes {
		node := &clusterNode{}
		node.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			node.server().Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(node.ts.Close)
		nodes[i] = node
		urls[i] = node.ts.URL
	}
	for i, node := range nodes {
		cl, err := cluster.New(cluster.Config{
			Self:    urls[i],
			Peers:   urls,
			Version: CodeVersion,
			Secret:  testClusterSecret,
			Logf:    t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := mkCfg(i)
		cfg.Cluster = cl
		node.mu.Lock()
		node.srv = New(cfg)
		node.mu.Unlock()
		t.Cleanup(node.srv.Close)
	}
	return nodes
}

// clusterInstrs sums sim_instrs across every node: the cluster-wide
// "how much simulation actually ran" ledger.
func clusterInstrs(nodes []*clusterNode) uint64 {
	var total uint64
	for _, n := range nodes {
		total += n.server().Sim().Instrs.Load()
	}
	return total
}

// postJSONHeaders is postJSON with caller-controlled headers (API keys,
// forged cluster-hop headers).
func postJSONHeaders(t *testing.T, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, url, buf, hdr)
}

// postBody posts body as it is, with caller-controlled headers (raw
// trace hop bodies are not JSON).
func postBody(t *testing.T, url string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// fakeCell builds a distinct canonical-ready cell: MaxInsts participates
// in the fingerprint, so varying it yields arbitrarily many distinct keys
// over one real benchmark.
func fakeCell(maxInsts uint64) Request {
	return Request{Kind: KindCell, Benchmark: "compress", Plan: "N", Machine: MachineOOO, MaxInsts: maxInsts}
}

// ownerIndex resolves which node owns a (non-canonicalized) cell.
func ownerIndex(t *testing.T, nodes []*clusterNode, c Request) int {
	t.Helper()
	s := nodes[0].server()
	canon, err := Canonicalize(c, s.cfg.MaxInstsCap)
	if err != nil {
		t.Fatal(err)
	}
	owner := s.cluster.Owner(Fingerprint(canon))
	for i, n := range nodes {
		if n.server().cluster.Self() == owner {
			return i
		}
	}
	t.Fatalf("owner %s is not a cluster node", owner)
	return -1
}

// TestClusterGoldenGrid is the tentpole acceptance test: a 3-node
// cluster serves the 18-cell golden grid through one ingress node
// bit-identically to the sequential reference, with the non-owned cells
// actually forwarded; the identical grid repeated against a DIFFERENT
// node resolves entirely from caches — cluster-wide sim_instrs delta
// exactly zero, the obs layer proving no node re-simulated anything.
func TestClusterGoldenGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden grid simulation is heavy")
	}
	nodes := newTestClusterNodes(t, 3, func(int) Config { return Config{} })
	ingress := nodes[0].server()

	cells := diffGrid()
	notOwned := 0
	for _, c := range cells {
		if ownerIndex(t, nodes, c) != 0 {
			notOwned++
		}
	}
	if notOwned == 0 {
		t.Fatal("rendezvous hash left every grid cell on the ingress node; the test would not exercise forwarding")
	}

	resp, body := postJSON(t, nodes[0].ts.URL+"/v1/simulate", SimulateRequest{Cells: cells})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	sr := decodeSim(t, body)
	if len(sr.Results) != len(cells) {
		t.Fatalf("got %d results, want %d", len(sr.Results), len(cells))
	}
	for i, cr := range sr.Results {
		if cr.Error != nil {
			t.Fatalf("cell %+v failed: %+v", cells[i], cr.Error)
		}
		want := directRun(t, cells[i])
		if *cr.Run != want {
			t.Errorf("cell %+v diverged from sequential reference:\n got: %+v\nwant: %+v", cells[i], *cr.Run, want)
		}
	}
	if got := ingress.met.Forwarded.Load(); got != uint64(notOwned) {
		t.Errorf("ingress forwarded %d cells, want %d (every non-owned cell)", got, notOwned)
	}

	// Round 2 against a different node: every cell cached somewhere in the
	// cluster, zero instructions simulated anywhere.
	instrsBefore := clusterInstrs(nodes)
	resp2, body2 := postJSON(t, nodes[1].ts.URL+"/v1/simulate", SimulateRequest{Cells: cells})
	if resp2.StatusCode != 200 {
		t.Fatalf("repeat status = %d\n%s", resp2.StatusCode, body2)
	}
	sr2 := decodeSim(t, body2)
	for i, cr := range sr2.Results {
		if cr.Error != nil || !cr.Cached {
			t.Fatalf("repeat cell %+v not served from a cluster cache: %+v", cells[i], cr)
		}
		if *cr.Run != *sr.Results[i].Run {
			t.Errorf("repeat payload for %+v differs between ingress nodes", cells[i])
		}
	}
	if delta := clusterInstrs(nodes) - instrsBefore; delta != 0 {
		t.Errorf("repeat grid simulated %d instructions cluster-wide, want exactly 0", delta)
	}
}

// TestClusterTraceUpload: trace uploads through node 0 of a 3-node
// cluster with durable stores, until each peer owns at least one, come
// back exactly as a single node serves them and reconcile with their
// recording runs at delta 0. The non-owned ones cross the raw trace hop:
// the owner serves them and stores them under the key the ingress
// computed, so a trace byte changed on the hop fails here, and a repeat
// through the other non-owner is served from the owner's cache.
func TestClusterTraceUpload(t *testing.T) {
	nodes := newTestClusterNodes(t, 3, func(int) Config { return Config{Store: openTestStore(t, t.TempDir(), nil)} })
	_, single := newTestServer(t, Config{})
	var owned [3]int
	for seed := int64(1); owned[1] == 0 || owned[2] == 0; seed++ {
		if seed > 16 {
			t.Fatalf("16 uploads left a peer owning none: %v", owned)
		}
		trace, run := progenTrace(t, seed)
		c := Request{Kind: KindTrace, Machine: MachineOOO, Trace: trace}
		o := ownerIndex(t, nodes, c)
		owned[o]++
		key := Fingerprint(mustCanon(t, c))
		want := postCells(t, single.URL, c).Results[0]
		if want.Error != nil || want.Replay == nil {
			t.Fatalf("seed %d: single node answered %+v, want a replay", seed, want)
		}
		owner := nodes[o].server()
		served := owner.met.ForwardedServed.Load()

		cr := postCells(t, nodes[0].ts.URL, c).Results[0]
		if cr.Error != nil || cr.Replay == nil || cr.Cached {
			t.Fatalf("seed %d (owner %d): cluster answered %+v, want a fresh replay", seed, o, cr)
		}
		if !reflect.DeepEqual(cr.Replay, want.Replay) {
			t.Errorf("seed %d (owner %d): cluster replay %+v, single node %+v", seed, o, cr.Replay, want.Replay)
		}
		if err := cr.Replay.Reconcile(run); err != nil {
			t.Errorf("seed %d (owner %d): cluster replay does not reconcile: %v", seed, o, err)
		}
		if stored, ok := owner.storeGet(key); !ok || !reflect.DeepEqual(stored.replay, want.Replay) {
			t.Errorf("seed %d: owner %d holds no stored replay under the single-node key %s", seed, o, key)
		}
		if o == 0 {
			continue
		}
		if owner.met.ForwardedServed.Load() == served {
			t.Errorf("seed %d: owner %d served no forwarded cell", seed, o)
		}
		rep := postCells(t, nodes[3-o].ts.URL, c).Results[0]
		if !rep.Cached || !reflect.DeepEqual(rep.Replay, want.Replay) {
			t.Errorf("seed %d: repeat through node %d = %+v, want the cached replay", seed, 3-o, rep)
		}
	}
	for i, n := range nodes {
		if f := n.server().met.ForwardFallbacks.Load(); f != 0 {
			t.Errorf("node %d fell back to local compute %d times", i, f)
		}
	}
}

// TestClusterExperimentScatterGather: POST /v1/experiment against one
// cluster node scatters the grid's cells to their owners and gathers in
// submission order — the formatted table must be byte-identical to the
// sequential (-j 1) reference.
func TestClusterExperimentScatterGather(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment grid simulation is heavy")
	}
	nodes := newTestClusterNodes(t, 3, func(int) Config { return Config{} })

	req := ExperimentRequest{
		Title:      "cluster scatter/gather",
		Benchmarks: []string{"compress", "espresso", "tomcatv"},
		Plans:      []string{"N", "S1", "CC1"},
	}
	resp, body := postJSON(t, nodes[0].ts.URL+"/v1/experiment", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	var er ExperimentResponse
	decodeTo(t, body, &er)

	benchmarks, specs := resolveGrid(t, req.Benchmarks, req.Plans)
	opt := experiments.DefaultOptions()
	opt.Workers = 1 // the sequential reference path
	res, err := experiments.HandlerOverhead(benchmarks, specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.FormatFigure(req.Title, res)
	if er.Table != want {
		t.Errorf("cluster-served table differs from sequential reference:\n--- served ---\n%s--- sequential ---\n%s", er.Table, want)
	}
	if er.Cells != len(res) {
		t.Errorf("cells = %d, want %d", er.Cells, len(res))
	}

	// The same experiment against a different ingress node: no node
	// simulates anything.
	instrsBefore := clusterInstrs(nodes)
	_, body2 := postJSON(t, nodes[2].ts.URL+"/v1/experiment", req)
	var er2 ExperimentResponse
	decodeTo(t, body2, &er2)
	if er2.Table != want {
		t.Error("repeat cluster experiment table differs from sequential reference")
	}
	if delta := clusterInstrs(nodes) - instrsBefore; delta != 0 {
		t.Errorf("repeat experiment simulated %d instructions cluster-wide, want exactly 0", delta)
	}
}

// resolveGrid maps wire names to harness types for the reference path.
func resolveGrid(t *testing.T, benchNames, planLabels []string) ([]workload.Benchmark, []experiments.PlanSpec) {
	t.Helper()
	var bms []workload.Benchmark
	for _, name := range benchNames {
		bm, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		bms = append(bms, bm)
	}
	var specs []experiments.PlanSpec
	for _, label := range planLabels {
		spec, err := experiments.PlanByLabel(label)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return bms, specs
}

// TestClusterPeerDownDegradesToLocal is the chaos lane: an owner node
// dying mid-workload costs the ingress node local recomputation, never an
// error and never a wrong answer.
func TestClusterPeerDownDegradesToLocal(t *testing.T) {
	runners := make([]*fakeRunner, 3)
	nodes := newTestClusterNodes(t, 3, func(i int) Config {
		runners[i] = newFakeRunner(false)
		return Config{runCell: runners[i].run}
	})
	ingress := nodes[0].server()

	// A workload of distinct cells spread across all three owners.
	var cells []Request
	victimOwned := 0
	for i := uint64(0); len(cells) < 24; i++ {
		c := fakeCell(10_000 + i)
		cells = append(cells, c)
		if ownerIndex(t, nodes, c) == 2 {
			victimOwned++
		}
	}
	if victimOwned == 0 {
		t.Fatal("no cell owned by the victim node; the test would not exercise failure")
	}

	// Healthy cluster: every cell computes exactly once, on its owner.
	resp, body := postJSON(t, nodes[0].ts.URL+"/v1/simulate", SimulateRequest{Cells: cells[:12]})
	if resp.StatusCode != 200 {
		t.Fatalf("warm-up status = %d\n%s", resp.StatusCode, body)
	}
	for i, cr := range decodeSim(t, body).Results {
		if cr.Error != nil {
			t.Fatalf("warm-up cell %d failed: %+v", i, cr.Error)
		}
	}
	for i, c := range cells[:12] {
		canon := mustCanon(t, c)
		owner := ownerIndex(t, nodes, c)
		if got := runners[owner].count(canon); got != 1 {
			t.Errorf("cell %d: owner node %d ran it %d times, want 1", i, owner, got)
		}
	}

	// The victim dies with fresh work outstanding.
	nodes[2].ts.CloseClientConnections()
	nodes[2].ts.Close()

	fresh := cells[12:]
	resp, body = postJSON(t, nodes[0].ts.URL+"/v1/simulate", SimulateRequest{Cells: fresh})
	if resp.StatusCode != 200 {
		t.Fatalf("degraded status = %d\n%s", resp.StatusCode, body)
	}
	for i, cr := range decodeSim(t, body).Results {
		if cr.Error != nil {
			t.Fatalf("degraded cell %d failed (peer loss must degrade, not error): %+v", i, cr.Error)
		}
		// fakeRunner's payload is a pure function of the canonical request,
		// so local fallback must produce the same answer the owner would.
		want := canonicalString(mustCanon(t, fresh[i]))
		if cr.Run == nil || cr.Run.Cycles != int64(len(want)) {
			t.Errorf("degraded cell %d: wrong payload %+v", i, cr.Run)
		}
	}
	// Every fresh victim-owned cell was computed by the ingress node.
	for i, c := range fresh {
		if ownerIndex(t, nodes, c) != 2 {
			continue
		}
		if got := runners[0].count(mustCanon(t, c)); got != 1 {
			t.Errorf("fresh victim-owned cell %d ran %d times on ingress, want 1 (local fallback)", i, got)
		}
	}
	if got := ingress.met.ForwardFallbacks.Load(); got == 0 {
		t.Error("serve_forward_fallbacks = 0, want > 0 after a peer died")
	}
	if st := ingress.cluster.Status()[nodes[2].ts.URL]; st.State != "down" {
		t.Errorf("victim peer state = %q, want down", st.State)
	}
}

// TestForwardedTenantNotDoubleCharged: a cluster-routed cell is charged
// against its tenant's token bucket exactly once, at the ingress node.
func TestForwardedTenantNotDoubleCharged(t *testing.T) {
	const burst = 20
	runners := make([]*fakeRunner, 2)
	nodes := newTestClusterNodes(t, 2, func(i int) Config {
		runners[i] = newFakeRunner(false)
		tenants, err := NewTenantSet(TenantsFile{Tenants: []TenantSpec{
			{Name: "alice", Key: "k-alice", RatePerSec: 0.0001, Burst: burst},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return Config{runCell: runners[i].run, Tenants: tenants}
	})
	auth := map[string]string{"X-API-Key": "k-alice"}

	// Exactly one burst of distinct cells through node 0; some forward to
	// node 1.
	var cells []Request
	for i := uint64(0); i < burst; i++ {
		cells = append(cells, fakeCell(20_000+i))
	}
	forwardedCount := 0
	for _, c := range cells {
		if ownerIndex(t, nodes, c) == 1 {
			forwardedCount++
		}
	}
	if forwardedCount == 0 {
		t.Fatal("no cell owned by the peer; the test would not exercise the forwarded hop")
	}
	resp, body := postJSONHeaders(t, nodes[0].ts.URL+"/v1/simulate", SimulateRequest{Cells: cells}, auth)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}

	// Node 0's bucket is now empty: one more cell there is rate-limited.
	resp, _ = postJSONHeaders(t, nodes[0].ts.URL+"/v1/simulate",
		SimulateRequest{Cells: []Request{fakeCell(30_000)}}, auth)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("ingress after full burst: status = %d, want 429", resp.StatusCode)
	}

	// Node 1's bucket must be untouched by the forwarded hops: a full
	// fresh burst directly against it is admitted. Before the fix (owner
	// re-charging forwarded cells) this request would 429.
	var fresh []Request
	for i := uint64(0); i < burst; i++ {
		fresh = append(fresh, fakeCell(40_000+i))
	}
	resp, body = postJSONHeaders(t, nodes[1].ts.URL+"/v1/simulate", SimulateRequest{Cells: fresh}, auth)
	if resp.StatusCode != 200 {
		t.Fatalf("peer bucket was drained by forwarded hops: status = %d\n%s", resp.StatusCode, body)
	}
}

// TestForwardedRequestNeverReForwarded is the loop guard: a request that
// already took its one peer hop is computed where it lands, even when the
// receiving node does not own it.
func TestForwardedRequestNeverReForwarded(t *testing.T) {
	runners := make([]*fakeRunner, 2)
	nodes := newTestClusterNodes(t, 2, func(i int) Config {
		runners[i] = newFakeRunner(false)
		return Config{runCell: runners[i].run}
	})

	// A cell owned by node 1, delivered to node 0 already marked as
	// forwarded (as a confused peer with a divergent peer list would —
	// a real peer, so it holds the cluster secret).
	var c Request
	for i := uint64(0); ; i++ {
		c = fakeCell(50_000 + i)
		if ownerIndex(t, nodes, c) == 1 {
			break
		}
	}
	resp, body := postJSONHeaders(t, nodes[0].ts.URL+"/v1/simulate",
		SimulateRequest{Cells: []Request{c}},
		map[string]string{HeaderForwarded: CodeVersion, HeaderClusterAuth: testClusterSecret})
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	if cr := decodeSim(t, body).Results[0]; cr.Error != nil {
		t.Fatalf("forwarded cell failed: %+v", cr.Error)
	}
	if got := runners[0].count(mustCanon(t, c)); got != 1 {
		t.Errorf("receiving node ran the cell %d times, want 1 (computed where it landed)", got)
	}
	if got := runners[1].count(mustCanon(t, c)); got != 0 {
		t.Errorf("owner node ran the cell %d times, want 0 (no second hop)", got)
	}
	if got := nodes[0].server().met.Forwarded.Load(); got != 0 {
		t.Errorf("serve_forwarded_total = %d, want 0 (loop guard)", got)
	}
}

// TestForwardedVersionMismatch409: the per-request half of the version
// handshake — a correctly authenticated hop from a peer on a different
// simulator build is refused with 409 before any simulation.
func TestForwardedVersionMismatch409(t *testing.T) {
	runners := make([]*fakeRunner, 2)
	nodes := newTestClusterNodes(t, 2, func(i int) Config {
		runners[i] = newFakeRunner(false)
		return Config{runCell: runners[i].run}
	})
	resp, body := postJSONHeaders(t, nodes[0].ts.URL+"/v1/simulate",
		SimulateRequest{Cells: []Request{fakeCell(60_000)}},
		map[string]string{HeaderForwarded: "informing-sim/0-stale", HeaderClusterAuth: testClusterSecret})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409\n%s", resp.StatusCode, body)
	}
	if runners[0].total()+runners[1].total() != 0 {
		t.Error("mismatched hop reached the simulator")
	}
}

// TestForwardedHopRequiresClusterSecret: the forwarded branch bypasses
// API-key auth and tenant admission, so it must be unforgeable. A client
// that types the forwarded headers without the shared cluster secret is
// refused with 403 — it gets neither anonymous-bypass on a DenyAnonymous
// node nor a free pass around its token bucket — and a node that is not
// a cluster member refuses the header outright.
func TestForwardedHopRequiresClusterSecret(t *testing.T) {
	// Not a cluster member: the header is rejected no matter what.
	runner := newFakeRunner(false)
	_, ts := newTestServer(t, Config{runCell: runner.run})
	resp, body := postJSONHeaders(t, ts.URL+"/v1/simulate",
		SimulateRequest{Cells: []Request{fakeCell(61_000)}},
		map[string]string{HeaderForwarded: CodeVersion})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("single node: status = %d, want 403\n%s", resp.StatusCode, body)
	}
	if runner.total() != 0 {
		t.Error("forged hop reached the simulator on a non-cluster node")
	}

	// Cluster member with keyed-only tenants: forging the forwarded
	// headers (with a tenant name, without the secret or with a wrong
	// one) must not bypass authentication.
	runners := make([]*fakeRunner, 2)
	nodes := newTestClusterNodes(t, 2, func(i int) Config {
		runners[i] = newFakeRunner(false)
		tenants, err := NewTenantSet(TenantsFile{
			DenyAnonymous: true,
			Tenants:       []TenantSpec{{Name: "alice", Key: "k-alice", RatePerSec: 1, Burst: 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return Config{runCell: runners[i].run, Tenants: tenants}
	})
	for _, hdr := range []map[string]string{
		{HeaderForwarded: CodeVersion, HeaderForwardedTenant: "alice"},
		{HeaderForwarded: CodeVersion, HeaderForwardedTenant: "alice", HeaderClusterAuth: "wrong-secret"},
	} {
		resp, body := postJSONHeaders(t, nodes[0].ts.URL+"/v1/simulate",
			SimulateRequest{Cells: []Request{fakeCell(62_000)}}, hdr)
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("forged hop %v: status = %d, want 403\n%s", hdr, resp.StatusCode, body)
		}
	}
	// A raw trace hop is a forwarded hop: without the secret, or with a
	// wrong one, it is refused before its body is read.
	raw := appendTraceHop(nil, Request{Kind: KindTrace, Machine: MachineOOO, Trace: "{}\n"})
	for _, hdr := range []map[string]string{
		{HeaderForwarded: CodeVersion, HeaderRawTrace: "1"},
		{HeaderForwarded: CodeVersion, HeaderRawTrace: "1", HeaderClusterAuth: "wrong-secret"},
	} {
		resp, body := postBody(t, nodes[0].ts.URL+"/v1/simulate", raw, hdr)
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("forged raw hop %v: status = %d, want 403\n%s", hdr, resp.StatusCode, body)
		}
	}
	if runners[0].total()+runners[1].total() != 0 {
		t.Error("forged hop reached the simulator")
	}
}

// TestForwardFallbackLifecycleRetry: a remote flight that ended in the
// first caller's drain/shutdown race (remoteFlight.retry) must not hand
// that verdict to coalesced waiters — each waiter re-runs the local path
// under its own admission and gets a real answer.
func TestForwardFallbackLifecycleRetry(t *testing.T) {
	runner := newFakeRunner(false)
	s, _ := newTestServer(t, Config{runCell: runner.run})
	c := mustCanon(t, fakeCell(63_000))
	key := Fingerprint(c)

	rf := &remoteFlight{done: make(chan struct{}), out: outcome{err: errShutdown}, retry: true}
	close(rf.done)
	tn := s.tenants.resolveForwarded("")
	res := s.await(context.Background(), ticket{key: key, req: c, tn: tn, remote: rf})
	if res.Error != nil {
		t.Fatalf("waiter inherited the first caller's shutdown verdict: %+v", res.Error)
	}
	if got := runner.count(c); got != 1 {
		t.Errorf("retry computed the cell %d times locally, want 1", got)
	}

	// Sanity: the classifier separates lifecycle races from verdicts.
	if !lifecycleReject(errShutdown) || !lifecycleReject(&WireError{Code: CodeCanceled, Message: "server draining"}) {
		t.Error("lifecycle rejections not classified as retryable")
	}
	if lifecycleReject(nil) || lifecycleReject(&WireError{Code: CodeBudget, Message: "budget exhausted"}) {
		t.Error("deterministic verdicts classified as retryable")
	}
}

// TestReadyzSubsystemDetail: /readyz carries per-subsystem JSON detail —
// dispatcher, store, cluster — and cluster peers being down never makes
// the node unready.
func TestReadyzSubsystemDetail(t *testing.T) {
	// Single node: cluster subsystem reports single-node mode.
	_, ts := newTestServer(t, Config{runCell: newFakeRunner(false).run})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var rb struct {
		Status     string `json:"status"`
		Subsystems struct {
			Dispatcher struct {
				Ready    bool `json:"ready"`
				Running  bool `json:"running"`
				Draining bool `json:"draining"`
			} `json:"dispatcher"`
			Store struct {
				Ready bool   `json:"ready"`
				State string `json:"state"`
			} `json:"store"`
			Cluster struct {
				Ready      bool                          `json:"ready"`
				Mode       string                        `json:"mode"`
				PeersTotal int                           `json:"peers_total"`
				PeersUp    int                           `json:"peers_up"`
				Peers      map[string]cluster.PeerStatus `json:"peers"`
			} `json:"cluster"`
		} `json:"subsystems"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || rb.Status != "ready" {
		t.Fatalf("single node: status %d/%q, want 200/ready", resp.StatusCode, rb.Status)
	}
	if !rb.Subsystems.Dispatcher.Ready || !rb.Subsystems.Dispatcher.Running {
		t.Errorf("dispatcher detail = %+v, want ready+running", rb.Subsystems.Dispatcher)
	}
	if rb.Subsystems.Store.State != "disabled" || !rb.Subsystems.Store.Ready {
		t.Errorf("store detail = %+v, want ready+disabled", rb.Subsystems.Store)
	}
	if rb.Subsystems.Cluster.Mode != "single-node" {
		t.Errorf("cluster mode = %q, want single-node", rb.Subsystems.Cluster.Mode)
	}

	// Cluster node with a dead peer: detail shows the outage, status stays
	// ready (peer loss degrades to local compute, it does not break the
	// node).
	runners := make([]*fakeRunner, 2)
	nodes := newTestClusterNodes(t, 2, func(i int) Config {
		runners[i] = newFakeRunner(false)
		return Config{runCell: runners[i].run}
	})
	var c Request
	for i := uint64(0); ; i++ {
		c = fakeCell(70_000 + i)
		if ownerIndex(t, nodes, c) == 1 {
			break
		}
	}
	nodes[1].ts.CloseClientConnections()
	nodes[1].ts.Close()
	if resp, body := postJSON(t, nodes[0].ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{c}}); resp.StatusCode != 200 {
		t.Fatalf("degraded simulate status = %d\n%s", resp.StatusCode, body)
	}

	resp, err = http.Get(nodes[0].ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || rb.Status != "ready" {
		t.Fatalf("cluster node with dead peer: status %d/%q, want 200/ready", resp.StatusCode, rb.Status)
	}
	cs := rb.Subsystems.Cluster
	if cs.Mode != "cluster" || cs.PeersTotal != 1 || cs.PeersUp != 0 {
		t.Errorf("cluster detail = %+v, want cluster/1 peer/0 up", cs)
	}
	if st := cs.Peers[nodes[1].ts.URL]; st.State != "down" {
		t.Errorf("dead peer state = %q, want down", st.State)
	}
}
