package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

	"informing/internal/cluster"
	"informing/internal/core"
	"informing/internal/experiments"
	"informing/internal/obs"
	"informing/internal/progen"
	"informing/internal/serve"
	"informing/internal/stats"
	"informing/internal/trace"
	"informing/internal/workload"
)

const clusterNodes = 3

// ---- serve_cold and serve_upload ----

// serveCold sends requests no node has seen through node 0 of a 3-node
// cluster with durable stores: each is computed by its owner and stored
// there, and about two thirds of them are forwarded one hop. serve_cold
// sends cells and serve_upload trace uploads; each workload sends one
// kind only, so that no assumed blend of the two decides either number.
//
// A phase is a series of rounds, the last one cut short at the deadline.
// Each round sends one fixed set of requests (the Figure 2 grid's cells,
// or the generated traces) in a seeded order to a newly booted cluster,
// so every request is cold without being altered to make it distinct. A
// fresh cluster also bounds what the servers hold by one round rather
// than by how many requests a run got through: each cached trace replay
// keeps its hierarchies alive, and peak_rss_mb must not rise with
// throughput.
type serveCold struct {
	root  string // parent of each cluster's store directory
	dir   string // the current cluster's stores
	f     *fleet
	used  bool // f has served a round
	round int
	reqs  []coldReq
	seed  int64
	size  sizing
	stats string

	mu   sync.Mutex
	runs []*stats.Run    // cells: the first served run of each; every later one must equal it
	last []time.Duration // the latest served latency of each request in this phase

	// Cells only: a seeded sample, each run directly in set-up.
	sample []coldDirect

	// From the last phase, for the per-layer metrics.
	overhead  []time.Duration // sampled cells: served latency minus the direct run
	forwarded uint64
	fallbacks uint64
}

// coldDirect is a sampled cell's direct core.Config.Run, which a served
// result must equal.
type coldDirect struct {
	k   int // index into reqs
	run stats.Run
	d   time.Duration
}

// coldReq is one request of a round: a cell, or a trace upload with the
// run that recorded the trace, which the served replay must reconcile
// with delta-0.
type coldReq struct {
	body []byte
	cell serve.Request // canonical; zero for an upload
	rec  *stats.Run    // upload only
}

func (r coldReq) name() string {
	if r.rec != nil {
		return "upload"
	}
	return fmt.Sprintf("%s/%s/%s", r.cell.Benchmark, r.cell.Machine, r.cell.Plan)
}

// uploadPrograms is how many generated programs serve_upload's traces
// come from. The programs are fixed, so that every seed uploads the same
// bytes; the seed orders each round.
const uploadPrograms = 32

func setupServeCold(e *env) (instance, error) {
	c := &serveCold{root: e.dir, seed: e.seed, size: e.size}
	bms := workload.Fig2Set()
	if n := e.size.gridBenchmarks; n > 0 && n < len(bms) {
		bms = bms[:n]
	}
	specs := experiments.Figure2Plans()
	for _, bm := range bms {
		for _, m := range []string{serve.MachineOOO, serve.MachineInOrder} {
			for _, spec := range specs {
				raw := serve.Request{Kind: serve.KindCell, Benchmark: bm.Name, Plan: spec.Label, Machine: m}
				body, err := json.Marshal(serve.SimulateRequest{Cells: []serve.Request{raw}})
				if err != nil {
					return nil, err
				}
				cell, _, err := canonical(raw)
				if err != nil {
					return nil, err
				}
				c.reqs = append(c.reqs, coldReq{body: body, cell: cell})
			}
		}
	}
	for _, k := range newRand(e.seed).Perm(len(c.reqs))[:min(e.size.sampleCells, len(c.reqs))] {
		run, d, err := directRun(c.reqs[k].cell)
		if err != nil {
			return nil, fmt.Errorf("direct run of %s: %w", c.reqs[k].name(), err)
		}
		c.sample = append(c.sample, coldDirect{k, run, d})
	}
	c.stats = fmt.Sprintf("%d Figure 2 cells per round (%d benchmarks x 2 machines x %d plans, scale 1), each round on a fresh cluster",
		len(c.reqs), len(bms), len(specs))
	return c, c.boot()
}

func setupServeUpload(e *env) (instance, error) {
	c := &serveCold{root: e.dir, seed: e.seed, size: e.size}
	var total, least, most int
	for i := 0; i < e.size.uploads; i++ {
		r, n, err := recordUpload(int64(i+1), i%2 == 0)
		if err != nil {
			return nil, err
		}
		c.reqs = append(c.reqs, r)
		total += n
		if i == 0 || n < least {
			least = n
		}
		most = max(most, n)
	}
	c.stats = fmt.Sprintf("%d traces of generated programs per round (%.2f-%.2f MB each, %.1f MB of JSONL in all), each round on a fresh cluster",
		len(c.reqs), float64(least)/1e6, float64(most)/1e6, float64(total)/1e6)
	return c, c.boot()
}

// recordUpload records a full trace of a generated program under the
// default replacement policy, which is what a served trace replay uses,
// and returns it as an upload request with the trace's size.
func recordUpload(seed int64, ooo bool) (coldReq, int, error) {
	p := progen.Generate(seed)
	scheme := core.Off
	switch p.Mode {
	case progen.Trap:
		scheme = core.TrapBranch
	case progen.CondCode:
		scheme = core.CondCode
	}
	cfg, machine := core.Alpha21164(scheme), serve.MachineInOrder
	if ooo {
		cfg, machine = core.R10000(scheme), serve.MachineOOO
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf, 1)
	run, err := cfg.WithMaxInsts(gridMaxInsts).WithTrace(sink.Emit).Run(p.Prog)
	if err != nil {
		return coldReq{}, 0, fmt.Errorf("progen seed %d: %w", seed, err)
	}
	if err := sink.Close(); err != nil {
		return coldReq{}, 0, err
	}
	body, err := json.Marshal(serve.SimulateRequest{Cells: []serve.Request{
		{Kind: serve.KindTrace, Machine: machine, Trace: buf.String()}}})
	if err != nil {
		return coldReq{}, 0, err
	}
	return coldReq{body: body, rec: &run}, buf.Len(), nil
}

// boot replaces the cluster with a newly booted one over empty stores.
func (c *serveCold) boot() error {
	c.close()
	dir, err := os.MkdirTemp(c.root, "cluster-")
	if err != nil {
		return err
	}
	f, err := bootFleet(clusterNodes, dir)
	if err != nil {
		os.RemoveAll(dir)
		return err
	}
	c.f, c.dir, c.used = f, dir, false
	return nil
}

func (c *serveCold) summary() string { return c.stats }

func (c *serveCold) close() {
	if c.f != nil {
		c.f.close()
		c.f = nil
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
		c.dir = ""
	}
}

func (c *serveCold) measure(deadline time.Time, tr *tracer) (phase, error) {
	var (
		ph   phase
		s    syncPhase
		wall time.Duration
	)
	if c.runs == nil {
		c.runs = make([]*stats.Run, len(c.reqs))
	}
	c.last = make([]time.Duration, len(c.reqs))
	c.forwarded, c.fallbacks = 0, 0
	names := []string{serve.MetricStoreWrites, serve.MetricForwarded, serve.MetricForwardFallbacks}
	for first := true; first || time.Now().Before(deadline); first = false {
		if c.used {
			if err := c.boot(); err != nil {
				return phase{}, err
			}
		}
		c.used = true
		before, err := c.f.counters(c.f.nodes, names...)
		if err != nil {
			return phase{}, err
		}
		order := newRand(c.seed + int64(c.round)*1_000_003).Perm(len(c.reqs))
		c.round++
		url := c.f.nodes[0].url + "/v1/simulate"
		done := len(s.ph.lat) // no client runs between rounds
		seq := sequence{max: int64(len(order))}
		wall += closedLoop(deadline, seq.next, func(j int) {
			k := order[j]
			r := c.reqs[k]
			b, d, err := c.f.post(tr, "http.request", url, r.body)
			var sr serve.SimulateResponse
			if err == nil {
				err = json.Unmarshal(b, &sr)
			}
			if err == nil {
				err = c.check(k, sr)
			}
			if err != nil {
				s.fail("%s: %v", r.name(), err)
				return
			}
			c.mu.Lock()
			c.last[k] = d
			c.mu.Unlock()
			s.ok("", d)
		})
		after, err := c.f.counters(c.f.nodes, names...)
		if err != nil {
			return phase{}, err
		}
		// Every result is stored once, by its owner, before it is returned.
		ph.attempted++
		if w, n := delta(after, before, serve.MetricStoreWrites), uint64(len(s.ph.lat)-done); w != n {
			ph.fail("round %d: %d store writes for %d served requests", c.round, w, n)
		}
		c.forwarded += delta(after, before, serve.MetricForwarded)
		c.fallbacks += delta(after, before, serve.MetricForwardFallbacks)
	}
	if c.fallbacks != 0 {
		ph.fail("%d forwards fell back to local compute", c.fallbacks)
	}
	ph.attempted += s.ph.attempted
	ph.failed += s.ph.failed
	ph.problems = append(ph.problems, s.ph.problems...)
	ph.lat = s.ph.lat
	ph.rate = float64(len(ph.lat)) / wall.Seconds()
	c.verifySample(&ph)
	return ph, nil
}

// check validates one response: a single fresh result, an upload's
// replay reconciled delta-0 with its recording run, a cell's run equal
// to the first one served for that cell.
func (c *serveCold) check(k int, sr serve.SimulateResponse) error {
	if len(sr.Results) != 1 {
		return fmt.Errorf("%d results", len(sr.Results))
	}
	cr := sr.Results[0]
	switch {
	case cr.Error != nil:
		return fmt.Errorf("%s", cr.Error.Message)
	case cr.Cached:
		return fmt.Errorf("a cold request was served from cache")
	case c.reqs[k].rec != nil:
		if cr.Replay == nil {
			return fmt.Errorf("no replay result")
		}
		return cr.Replay.Reconcile(*c.reqs[k].rec)
	case cr.Run == nil:
		return fmt.Errorf("no run")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runs[k] == nil {
		c.runs[k] = cr.Run
	} else if !reflect.DeepEqual(*cr.Run, *c.runs[k]) {
		return fmt.Errorf("differs from the first time it was served")
	}
	return nil
}

// verifySample compares the sampled cells served in this phase with
// their direct runs. Uploads need no sample: every replay is reconciled
// with its recording run.
func (c *serveCold) verifySample(ph *phase) {
	c.overhead = nil
	for _, sd := range c.sample {
		if c.last[sd.k] == 0 {
			continue // not served in this phase, or its failure is already counted
		}
		ph.attempted++
		if !reflect.DeepEqual(sd.run, *c.runs[sd.k]) {
			ph.fail("served %s differs from a direct run", c.reqs[sd.k].name())
			continue
		}
		c.overhead = append(c.overhead, c.last[sd.k]-sd.d)
	}
}

func (c *serveCold) layers(tr *tracer, m metrics) error {
	m["cluster.forwarded"] = float64(c.forwarded)
	m["cluster.fallbacks"] = float64(c.fallbacks)
	m["serve.cold_overhead_ms"] = median(msAll(c.overhead))
	insts := map[string]uint64{}
	directT := map[string]time.Duration{}
	for _, sd := range c.sample {
		machine := c.reqs[sd.k].cell.Machine
		insts[machine] += sd.run.DynInsts
		directT[machine] += sd.d
	}
	m["core.ooo_ns_per_inst"] = perUnit(directT[serve.MachineOOO], insts[serve.MachineOOO], time.Nanosecond)
	m["core.inorder_ns_per_inst"] = perUnit(directT[serve.MachineInOrder], insts[serve.MachineInOrder], time.Nanosecond)
	// Parsing cost of the uploaded traces themselves.
	var (
		parse        time.Duration
		events, size uint64
	)
	for _, r := range c.reqs {
		if r.rec == nil {
			continue
		}
		var req serve.SimulateRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		text := req.Cells[0].Trace
		sp := tr.begin("trace.load", 0, 0)
		d, err := trace.Load(strings.NewReader(text), trace.ReaderConfig{})
		parse += sp.stop()
		if err != nil {
			return err
		}
		events += d.Events
		size += uint64(len(text))
	}
	m["trace.parse_ns_per_event"] = perUnit(parse, events, time.Nanosecond)
	if events > 0 {
		m["trace.bytes_per_event"] = float64(size) / float64(events)
	}
	return storeLayers(tr, c.f.dirs(), filepath.Join(c.root, "put"), m)
}

// ---- serve_warm ----

// serveWarm reads back results a 3-node cluster already holds: after a
// warm restart of every node on its own address, one pass over all keys
// through one node (store hits, two thirds of them one hop away) and one
// through the next (LRU hits, two thirds forwarded).
type serveWarm struct {
	f      *fleet
	dir    string
	keys   []warmKey
	rng    *rand.Rand
	cycle  int
	stats  string
	owners [clusterNodes]int

	// From the last phase, for the per-layer metrics.
	classes   map[string][]time.Duration
	forwarded uint64
	fallbacks uint64
	storeHits uint64
}

type warmKey struct {
	body  []byte
	key   string
	owner int // node index
}

// Request classes, by where the result came from.
const (
	localLRU   = "local LRU hit"
	localStore = "local store hit"
	fwdLRU     = "forwarded LRU hit"
	fwdStore   = "forwarded store hit"
)

func setupServeWarm(e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.dir, "warm-")
	if err != nil {
		return nil, err
	}
	f, err := bootFleet(clusterNodes, dir)
	if err != nil {
		return nil, err
	}
	rng := newRand(e.seed)
	w := &serveWarm{f: f, dir: dir, rng: rng}
	index := map[string]int{}
	for i, u := range f.peers {
		index[u] = i
	}
	// Keys are small distinct programs: what a hit costs does not depend
	// on how long the cell once simulated, and small programs keep the
	// set-up short.
	var cells []serve.Request
	for i, n := range rng.Perm(e.size.warmKeys * 4)[:e.size.warmKeys] {
		m := serve.MachineOOO
		if i%2 == 1 {
			m = serve.MachineInOrder
		}
		cell := serve.Request{Kind: serve.KindProgram, Machine: m,
			Source: fmt.Sprintf("\tli r1, %d\nloop:\taddi r1, r1, -1\n\tbne r1, r0, loop\n\thalt\n", 16+n)}
		_, key, err := canonical(cell)
		if err != nil {
			w.close()
			return nil, err
		}
		body, err := json.Marshal(serve.SimulateRequest{Cells: []serve.Request{cell}})
		if err != nil {
			w.close()
			return nil, err
		}
		owner := index[cluster.OwnerOf(f.peers, key)]
		w.owners[owner]++
		w.keys = append(w.keys, warmKey{body: body, key: key, owner: owner})
		cells = append(cells, cell)
	}
	// Compute every key once through node 0: each owner stores its own.
	const batch = 32
	for i := 0; i < len(cells); i += batch {
		body, err := json.Marshal(serve.SimulateRequest{Cells: cells[i:min(i+batch, len(cells))]})
		if err != nil {
			w.close()
			return nil, err
		}
		b, _, err := f.post(nil, "", f.nodes[0].url+"/v1/simulate", body)
		if err == nil {
			err = checkSimulate(b, -1, false)
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("computing keys: %w", err)
		}
	}
	w.stats = fmt.Sprintf("%d distinct program cells, owned %v by the 3 nodes", len(w.keys), w.owners)
	return w, nil
}

func (w *serveWarm) summary() string { return w.stats }

func (w *serveWarm) close() {
	w.f.close()
	os.RemoveAll(w.dir)
}

func (w *serveWarm) measure(deadline time.Time, tr *tracer) (phase, error) {
	var (
		ph      phase
		s       syncPhase
		passDur time.Duration
	)
	names := []string{obs.MetricInstrs, serve.MetricStoreHits, serve.MetricForwarded, serve.MetricForwardFallbacks}
	w.forwarded, w.fallbacks, w.storeHits = 0, 0, 0
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := w.f.restart(tr); err != nil {
			return phase{}, err
		}
		// warmed[n] holds the keys node n's LRU has seen since the restart.
		var warmed [clusterNodes]map[int]bool
		for n := range warmed {
			warmed[n] = map[int]bool{}
		}
		for pass := 0; pass < 2; pass++ {
			via := (w.cycle + pass) % clusterNodes
			before, err := w.f.counters(w.f.nodes, names...)
			if err != nil {
				return phase{}, err
			}
			order := w.rng.Perm(len(w.keys))
			classes := make([]string, len(order))
			var wantForwarded, wantStore uint64
			for j, k := range order {
				key := w.keys[k]
				switch {
				case warmed[via][k]:
					classes[j] = localLRU
				case key.owner == via:
					classes[j] = localStore
					wantStore++
				case warmed[key.owner][k]:
					classes[j] = fwdLRU
					wantForwarded++
				default:
					classes[j] = fwdStore
					wantForwarded++
					wantStore++
				}
				warmed[via][k], warmed[key.owner][k] = true, true
			}
			var seq sequence
			seq.max = int64(len(order))
			url := w.f.nodes[via].url + "/v1/simulate"
			passDur += closedLoop(time.Now().Add(time.Hour), seq.next, func(j int) {
				key := w.keys[order[j]]
				b, d, err := w.f.post(tr, "http.request", url, key.body)
				var sr serve.SimulateResponse
				if err == nil {
					err = json.Unmarshal(b, &sr)
				}
				if err == nil {
					err = checkWarm(sr, key.key)
				}
				if err != nil {
					s.fail("%s: %v", classes[j], err)
					return
				}
				s.ok(classes[j], d)
			})
			after, err := w.f.counters(w.f.nodes, names...)
			if err != nil {
				return phase{}, err
			}
			ph.attempted++
			switch {
			case delta(after, before, obs.MetricInstrs) != 0:
				ph.fail("a hit pass simulated %d instructions", delta(after, before, obs.MetricInstrs))
			case delta(after, before, serve.MetricStoreHits) != wantStore:
				ph.fail("%d store hits, want %d", delta(after, before, serve.MetricStoreHits), wantStore)
			case delta(after, before, serve.MetricForwarded) != wantForwarded:
				ph.fail("%d forwarded, want %d", delta(after, before, serve.MetricForwarded), wantForwarded)
			}
			w.forwarded += delta(after, before, serve.MetricForwarded)
			w.fallbacks += delta(after, before, serve.MetricForwardFallbacks)
			w.storeHits += delta(after, before, serve.MetricStoreHits)
		}
		w.cycle++
	}
	if w.fallbacks != 0 {
		ph.fail("%d forwards fell back to local compute", w.fallbacks)
	}
	ph.attempted += s.ph.attempted
	ph.failed += s.ph.failed
	ph.problems = append(ph.problems, s.ph.problems...)
	ph.lat = s.ph.lat
	ph.rate = float64(len(ph.lat)) / passDur.Seconds()
	w.classes = s.classes
	return ph, nil
}

func checkWarm(sr serve.SimulateResponse, key string) error {
	if len(sr.Results) != 1 {
		return fmt.Errorf("%d results", len(sr.Results))
	}
	cr := sr.Results[0]
	switch {
	case cr.Error != nil:
		return fmt.Errorf("%s", cr.Error.Message)
	case !cr.Cached:
		return fmt.Errorf("recomputed instead of served from cache or store")
	case cr.Key != key:
		return fmt.Errorf("key %s, want %s", cr.Key, key)
	case cr.Run == nil:
		return fmt.Errorf("no run")
	}
	return nil
}

func (w *serveWarm) layers(tr *tracer, m metrics) error {
	fwd, local := p50ms(w.classes[fwdLRU]), p50ms(w.classes[localLRU])
	m["cluster.fwd_hit_p50_ms"] = fwd
	m["cluster.hop_ms"] = fwd - local
	m["store.hit_p50_ms"] = p50ms(w.classes[localStore])
	m["cluster.forwarded"] = float64(w.forwarded)
	m["cluster.fallbacks"] = float64(w.fallbacks)
	m["store.hits"] = float64(w.storeHits)
	var opens []float64
	for _, s := range tr.snapshot() {
		if s.Name == "store.open" {
			opens = append(opens, ms(s.dur()))
		}
	}
	m["store.open_ms"] = median(opens)
	return storeLayers(tr, w.f.dirs(), filepath.Join(w.dir, "put"), m)
}
