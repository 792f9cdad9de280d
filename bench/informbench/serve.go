package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"informing/internal/cluster"
	"informing/internal/core"
	"informing/internal/experiments"
	"informing/internal/obs"
	"informing/internal/serve"
	"informing/internal/stats"
	"informing/internal/store"
	"informing/internal/workload"
)

// Load comes from this one process: at most `clients` goroutines, each
// sending its next request only after the previous response was read
// (a closed loop), over at most `clients` connections.
const (
	clients       = 2
	clusterSecret = "informbench-in-process"
)

func discardLog(string, ...any) {}

// node is one in-process informd on a fixed loopback address, so that a
// restart keeps its place in the rendezvous ring: with a fresh port after
// a restart, ownership would move and "store hits" would recompute.
type node struct {
	addr, url string
	dir       string // durable store directory; "" = RAM-only
	srv       *serve.Server
	hs        *http.Server
	served    chan struct{} // closed when hs.Serve returns
}

// fleet is one informd, or a static-peer cluster of them.
type fleet struct {
	nodes []*node
	peers []string
	hc    *http.Client
}

// bootFleet starts size nodes; with dir set each gets a durable store
// under it. Every listener exists before any Server is built, because a
// cluster member needs the full peer list.
func bootFleet(size int, dir string) (*fleet, error) {
	f := &fleet{hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
		Timeout:   2 * time.Minute,
	}}
	var lns []net.Listener
	for i := 0; i < size; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		n := &node{addr: ln.Addr().String()}
		n.url = "http://" + n.addr
		if dir != "" {
			n.dir = filepath.Join(dir, fmt.Sprintf("node%d", i))
		}
		f.nodes = append(f.nodes, n)
		f.peers = append(f.peers, n.url)
	}
	for i, n := range f.nodes {
		if err := n.start(lns[i], f.peers, nil, 0); err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// start opens the node's store, builds its Server and serves it on ln.
func (n *node) start(ln net.Listener, peers []string, tr *tracer, parent int) error {
	cfg := serve.Config{Logf: discardLog}
	if n.dir != "" {
		sp := tr.begin("store.open", parent, 0)
		st, err := store.Open(store.Options{Dir: n.dir, Version: serve.CodeVersion})
		sp.stop()
		if err != nil {
			return err
		}
		cfg.Store = st
	}
	if len(peers) > 1 {
		cl, err := cluster.New(cluster.Config{Self: n.url, Peers: peers, Version: serve.CodeVersion,
			Secret: clusterSecret, Logf: discardLog})
		if err != nil {
			return err
		}
		cfg.Cluster = cl
	}
	n.srv = serve.New(cfg)
	n.hs = &http.Server{Handler: n.srv.Handler()}
	n.served = make(chan struct{})
	go func() {
		defer close(n.served)
		_ = n.hs.Serve(ln) // returns once stop shuts the server down
	}()
	return nil
}

// stop closes the listener and every connection, waits for the serving
// goroutine, then closes the Server. Nodes stop only between passes, with
// no request in flight; http.Server.Shutdown would instead wait up to
// five seconds for each connection a client dialed but never used.
// Idempotent.
func (n *node) stop() {
	if n.hs == nil {
		return
	}
	_ = n.hs.Close()
	<-n.served
	n.srv.Close()
	n.hs = nil
}

// restart stops every node, then starts each again on its own address
// over its existing store directory.
func (f *fleet) restart(tr *tracer) error {
	sp := tr.begin("cluster.restart", 0, 0)
	defer sp.stop()
	for _, n := range f.nodes {
		n.stop()
	}
	f.hc.CloseIdleConnections()
	for _, n := range f.nodes {
		ln, err := net.Listen("tcp", n.addr)
		if err != nil {
			return fmt.Errorf("relisten %s: %w", n.addr, err)
		}
		if err := n.start(ln, f.peers, tr, sp.id); err != nil {
			ln.Close()
			return err
		}
	}
	return nil
}

// dirs lists the nodes' store directories.
func (f *fleet) dirs() []string {
	var dirs []string
	for _, n := range f.nodes {
		dirs = append(dirs, n.dir)
	}
	return dirs
}

func (f *fleet) close() {
	for _, n := range f.nodes {
		n.stop()
	}
	f.hc.CloseIdleConnections()
}

// post sends one request. The latency covers sending it and reading the
// whole response; decoding is left to the caller, outside it.
func (f *fleet) post(tr *tracer, span, url string, body []byte) ([]byte, time.Duration, error) {
	sp := tr.begin(span, 0, tr.newReq())
	resp, err := f.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, sp.stop(), err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := sp.stop()
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, d, fmt.Errorf("status %d: %.200s", resp.StatusCode, b)
	}
	return b, d, nil
}

// counters sums the named /metrics counters over the given nodes.
func (f *fleet) counters(nodes []*node, names ...string) (map[string]uint64, error) {
	out := map[string]uint64{}
	for _, n := range nodes {
		resp, err := f.hc.Get(n.url + "/metrics")
		if err != nil {
			return nil, err
		}
		var snap struct {
			Counters map[string]uint64 `json:"counters"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", n.url, err)
		}
		for _, name := range names {
			out[name] += snap.Counters[name]
		}
	}
	return out, nil
}

func delta(after, before map[string]uint64, name string) uint64 { return after[name] - before[name] }

// syncPhase is a phase filled in by concurrent clients.
type syncPhase struct {
	mu      sync.Mutex
	ph      phase
	classes map[string][]time.Duration
}

// ok records a successful request; class "" keeps no per-class copy.
func (s *syncPhase) ok(class string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ph.attempted++
	s.ph.lat = append(s.ph.lat, d)
	if class == "" {
		return
	}
	if s.classes == nil {
		s.classes = map[string][]time.Duration{}
	}
	s.classes[class] = append(s.classes[class], d)
}

func (s *syncPhase) fail(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ph.attempted++
	s.ph.fail(format, args...)
}

// closedLoop runs the clients until the deadline passes or next reports
// no more work; op handles request i. Each client sends at least one
// request, so a deadline already past still warms the servers up. It
// returns the wall time.
func closedLoop(deadline time.Time, next func() (int, bool), op func(i int)) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				i, ok := next()
				if !ok {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// sequence hands out request numbers, continuing across phases so that a
// traced phase never repeats an untraced one's cold requests.
type sequence struct {
	n   atomic.Int64
	max int64 // 0 = unbounded
}

func (s *sequence) next() (int, bool) {
	i := s.n.Add(1) - 1
	if s.max > 0 && i >= s.max {
		return 0, false
	}
	return int(i), true
}

func canonical(r serve.Request) (serve.Request, string, error) {
	c, err := serve.Canonicalize(r, 0)
	if err != nil {
		return serve.Request{}, "", err
	}
	return c, serve.Fingerprint(c), nil
}

// directRun simulates a canonical cell in-process the way informd does,
// for comparison with a served result.
func directRun(c serve.Request) (stats.Run, time.Duration, error) {
	bm, ok := workload.ByName(c.Benchmark)
	if !ok {
		return stats.Run{}, 0, fmt.Errorf("unknown benchmark %q", c.Benchmark)
	}
	spec, err := experiments.PlanByLabel(c.Plan)
	if err != nil {
		return stats.Run{}, 0, err
	}
	prog, err := workload.Build(bm, spec.Make(), c.Scale)
	if err != nil {
		return stats.Run{}, 0, err
	}
	machine := core.OutOfOrder
	if c.Machine == serve.MachineInOrder {
		machine = core.InOrder
	}
	cfg := experiments.ConfigFor(machine, spec.Scheme).WithPolicy(c.Policy).WithMaxInsts(c.MaxInsts)
	t0 := time.Now()
	run, err := cfg.Run(prog)
	return run, time.Since(t0), err
}

// storeLayers reopens the run's store directories and times Get on every
// stored payload (up to maxEntries) and Put of the same payload into a
// scratch store.
func storeLayers(tr *tracer, dirs []string, scratch string, m metrics) error {
	const maxEntries = 400
	defer os.RemoveAll(scratch)
	dst, err := store.Open(store.Options{Dir: scratch, Version: serve.CodeVersion})
	if err != nil {
		return err
	}
	var (
		getT, putT time.Duration
		n, size    uint64
	)
	for _, dir := range dirs {
		src, err := store.Open(store.Options{Dir: dir, Version: serve.CodeVersion})
		if err != nil {
			return err
		}
		for _, k := range src.Keys() {
			if n == maxEntries {
				break
			}
			sp := tr.begin("store.get", 0, 0)
			b, ok, err := src.Get(k)
			getT += sp.stop()
			if err != nil || !ok {
				return fmt.Errorf("store get %s: ok=%t err=%v", k, ok, err)
			}
			sp = tr.begin("store.put", 0, 0)
			err = dst.Put(k, b)
			putT += sp.stop()
			if err != nil {
				return err
			}
			n++
			size += uint64(len(b))
		}
	}
	m["store.get_us"] = perUnit(getT, n, time.Microsecond)
	m["store.put_us"] = perUnit(putT, n, time.Microsecond)
	if n > 0 {
		m["store.payload_bytes"] = float64(size) / float64(n)
	}
	return nil
}

func p50ms(ds []time.Duration) float64 { return median(msAll(ds)) }

// ---- serve_hot and serve_explain ----

// serveHot is one informd whose every request is an LRU hit: the request
// pipeline alone, with no simulation. serve_hot sends one-cell
// /v1/simulate requests and serve_explain one-cell /v1/explain requests
// (which share the simulate cache entry); each workload sends one kind
// only, so that no assumed blend of request kinds decides its numbers.
type serveHot struct {
	f      *fleet
	path   string
	cells  []serve.Request // canonical, warmed in set-up
	bodies [][]byte        // one request per cell
	order  []int           // seeded order of the cells, repeated
	sample []int           // cells compared with a direct run
	direct map[int]stats.Run
	seq    sequence

	hitRatio float64
	stats    string
}

func setupServeHot(e *env) (instance, error)     { return setupHot(e, "/v1/simulate") }
func setupServeExplain(e *env) (instance, error) { return setupHot(e, "/v1/explain") }

// warmBatch is how many cells one set-up request computes.
const warmBatch = 8

func setupHot(e *env, path string) (instance, error) {
	f, err := bootFleet(1, "")
	if err != nil {
		return nil, err
	}
	h := &serveHot{f: f, path: path, direct: map[int]stats.Run{}}
	rng := newRand(e.seed)
	var cand []serve.Request
	for _, bm := range workload.All() {
		for _, m := range []string{serve.MachineOOO, serve.MachineInOrder} {
			for _, spec := range experiments.Figure2Plans() {
				cand = append(cand, serve.Request{Kind: serve.KindCell, Benchmark: bm.Name, Plan: spec.Label, Machine: m})
			}
		}
	}
	raw := make([]serve.Request, 0, e.size.hotCells)
	for _, i := range rng.Perm(len(cand))[:e.size.hotCells] {
		c, _, err := canonical(cand[i])
		if err == nil {
			var body []byte
			body, err = json.Marshal(serve.SimulateRequest{Cells: cand[i : i+1]})
			h.bodies = append(h.bodies, body)
		}
		if err != nil {
			h.close()
			return nil, err
		}
		h.cells = append(h.cells, c)
		raw = append(raw, cand[i])
	}
	// Warm the cache: every cell computed once.
	for i := 0; i < len(raw); i += warmBatch {
		body, err := json.Marshal(serve.SimulateRequest{Cells: raw[i:min(i+warmBatch, len(raw))]})
		if err != nil {
			h.close()
			return nil, err
		}
		b, _, err := f.post(nil, "", f.nodes[0].url+"/v1/simulate", body)
		if err == nil {
			err = checkSimulate(b, -1, false)
		}
		if err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	for rep := 0; rep < 10; rep++ {
		h.order = append(h.order, rng.Perm(len(h.cells))...)
	}
	h.sample = rng.Perm(len(h.cells))[:min(e.size.sampleCells, len(h.cells))]
	h.stats = fmt.Sprintf("%d cells warmed; one-cell %s requests over them in seeded order", len(h.cells), path)
	return h, nil
}

func (h *serveHot) summary() string { return h.stats }
func (h *serveHot) close()          { h.f.close() }

// checkSimulate decodes a /v1/simulate response and checks that it has
// want results (-1 = any), none failed, and each one's cached flag.
func checkSimulate(b []byte, want int, cached bool) error {
	var sr serve.SimulateResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		return err
	}
	if want >= 0 && len(sr.Results) != want {
		return fmt.Errorf("%d results, want %d", len(sr.Results), want)
	}
	for i, r := range sr.Results {
		if r.Error != nil {
			return fmt.Errorf("cell %d: %s", i, r.Error.Message)
		}
		if r.Cached != cached {
			return fmt.Errorf("cell %d: cached=%t, want %t", i, r.Cached, cached)
		}
	}
	return nil
}

func checkExplain(b []byte, want int) error {
	var er serve.ExplainResponse
	if err := json.Unmarshal(b, &er); err != nil {
		return err
	}
	if len(er.Results) != want {
		return fmt.Errorf("%d results, want %d", len(er.Results), want)
	}
	for i, r := range er.Results {
		if r.Error != nil {
			return fmt.Errorf("cell %d: %s", i, r.Error.Message)
		}
		if !r.Cached || r.L1 == nil || r.L2 == nil {
			return fmt.Errorf("cell %d: cached=%t, taxonomy present=%t", i, r.Cached, r.L1 != nil)
		}
	}
	return nil
}

// check validates one response: a single cached result without error.
func (h *serveHot) check(b []byte) error {
	if h.path == "/v1/explain" {
		return checkExplain(b, 1)
	}
	return checkSimulate(b, 1, true)
}

func (h *serveHot) measure(deadline time.Time, tr *tracer) (phase, error) {
	url := h.f.nodes[0].url + h.path
	names := []string{obs.MetricInstrs, serve.MetricHits, serve.MetricMisses}
	before, err := h.f.counters(h.f.nodes, names...)
	if err != nil {
		return phase{}, err
	}
	var s syncPhase
	wall := closedLoop(deadline, h.seq.next, func(i int) {
		b, d, err := h.f.post(tr, "http.request", url, h.bodies[h.order[i%len(h.order)]])
		if err == nil {
			err = h.check(b)
		}
		if err != nil {
			s.fail("%s: %v", h.path, err)
			return
		}
		s.ok("", d)
	})
	ph := s.ph
	ph.rate = float64(len(ph.lat)) / wall.Seconds()
	after, err := h.f.counters(h.f.nodes, names...)
	if err != nil {
		return phase{}, err
	}
	if d := delta(after, before, obs.MetricInstrs); d != 0 {
		ph.fail("a cache-hit phase simulated %d instructions", d)
	}
	hits, misses := delta(after, before, serve.MetricHits), delta(after, before, serve.MetricMisses)
	if misses != 0 {
		ph.fail("%d cache misses in a cache-hit phase", misses)
	}
	if hits+misses > 0 {
		h.hitRatio = float64(hits) / float64(hits+misses)
	}
	h.verifySample(&ph)
	return ph, nil
}

// verifySample asks for the sampled cells once more (cache hits) and
// compares each with a direct core.Config.Run of the same canonical cell.
func (h *serveHot) verifySample(ph *phase) {
	ph.attempted++
	cells := make([]serve.Request, len(h.sample))
	for i, idx := range h.sample {
		cells[i] = h.cells[idx]
	}
	body, err := json.Marshal(serve.SimulateRequest{Cells: cells})
	if err != nil {
		ph.fail("sample: %v", err)
		return
	}
	b, _, err := h.f.post(nil, "", h.f.nodes[0].url+"/v1/simulate", body)
	if err != nil {
		ph.fail("sample: %v", err)
		return
	}
	var sr serve.SimulateResponse
	if err := json.Unmarshal(b, &sr); err != nil || len(sr.Results) != len(cells) {
		ph.fail("sample: bad response (%v)", err)
		return
	}
	for i, idx := range h.sample {
		want, ok := h.direct[idx]
		if !ok {
			run, _, err := directRun(h.cells[idx])
			if err != nil {
				ph.fail("sample direct run: %v", err)
				return
			}
			h.direct[idx], want = run, run
		}
		if got := sr.Results[i].Run; got == nil || !reflect.DeepEqual(*got, want) {
			ph.fail("served %s/%s/%s differs from a direct run", cells[i].Benchmark, cells[i].Machine, cells[i].Plan)
		}
	}
}

func (h *serveHot) layers(tr *tracer, m metrics) error {
	url := h.f.nodes[0].url
	// JSON decode + canonicalize + fingerprint of the workload's own
	// request bodies: the server's front end without HTTP.
	const reps = 5
	sp := tr.begin("serve.decode_canon", 0, 0)
	for rep := 0; rep < reps; rep++ {
		for _, body := range h.bodies {
			var req serve.SimulateRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			for _, c := range req.Cells {
				if _, _, err := canonical(c); err != nil {
					return err
				}
			}
		}
	}
	m["serve.decode_canon_us"] = perUnit(sp.stop(), uint64(reps*len(h.bodies)), time.Microsecond)

	// Encoding of the returned results, as the server writes them.
	var (
		enc  time.Duration
		size uint64
	)
	for _, body := range h.bodies {
		b, _, err := h.f.post(nil, "", url+h.path, body)
		if err != nil {
			return err
		}
		var v any = &serve.SimulateResponse{}
		if h.path == "/v1/explain" {
			v = &serve.ExplainResponse{}
		}
		if err := json.Unmarshal(b, v); err != nil {
			return err
		}
		var buf bytes.Buffer
		e := json.NewEncoder(&buf)
		e.SetIndent("", "  ")
		sp := tr.begin("serve.encode", 0, 0)
		for rep := 0; rep < reps; rep++ {
			buf.Reset()
			if err := e.Encode(v); err != nil {
				return err
			}
		}
		enc += sp.stop()
		size += uint64(len(b))
	}
	cells := uint64(len(h.bodies))
	m["serve.encode_us_per_cell"] = perUnit(enc, reps*cells, time.Microsecond)
	m["serve.resp_bytes_per_cell"] = float64(size) / float64(cells)
	m["serve.hit_ratio"] = h.hitRatio
	rtt, err := h.f.healthzRTT(tr, url)
	if err != nil {
		return err
	}
	m["serve.loopback_rtt_us"] = rtt
	return nil
}

// healthzRTT is the p50 of GET /healthz in microseconds: the transport
// floor under every request.
func (f *fleet) healthzRTT(tr *tracer, url string) (float64, error) {
	var ds []float64
	for i := 0; i < 300; i++ {
		sp := tr.begin("http.healthz", 0, tr.newReq())
		resp, err := f.hc.Get(url + "/healthz")
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		d := sp.stop()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d)/float64(time.Microsecond))
	}
	return median(ds), nil
}
