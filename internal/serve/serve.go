// Package serve is the simulation-as-a-service layer: a long-running
// HTTP/JSON front end over the experiment harnesses (internal/experiments,
// internal/coherence) and the timing cores. The paper's experiments are
// pure functions of (workload, plan, machine configuration), which is what
// makes this layer sound:
//
//   - every request is validated and canonicalized (Canonicalize), then
//     keyed by a deterministic fingerprint of the canonical request plus
//     the simulator code version (Fingerprint);
//   - repeats are served from a bounded in-memory LRU without touching
//     the simulator; on an LRU miss, a durable on-disk store
//     (internal/store) is consulted read-through and populated
//     write-behind, so a restarted daemon starts warm — and any store
//     malfunction demotes the daemon to RAM-only operation rather than
//     ever serving an unverified result;
//   - identical requests racing each other coalesce onto one in-flight
//     computation (single-flight), whose run governor is cancelled only
//     when every interested request has gone away;
//   - requests carry a tenant (API key; keyless = anonymous tier), pass
//     per-tenant token-bucket admission, and distinct requests are queued
//     (bounded — the queue overflowing is the server's backpressure
//     signal, surfaced as HTTP 429 with an honest computed Retry-After)
//     in per-tenant FIFOs drained weighted-fair by a pool of workers,
//     each of which starts the next queued flight as soon as it is free;
//   - per-request budgets and cancellation ride the existing govern
//     layer: a cell's MaxInsts becomes its governor budget and the flight
//     context is threaded into the engines, so a cancelled flight aborts
//     at the next governor poll with a diagnostic snapshot.
//
// Observability reuses internal/obs: one registry holds the serving
// metrics (serve_*, including per-tenant labelled variants), the store
// metrics and the simulator metrics (sim_*), served on GET /metrics — the
// differential tests use exactly this to prove a cache hit re-simulates
// nothing (sim_instrs delta zero).
package serve

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"informing/internal/asm"
	"informing/internal/cluster"
	"informing/internal/coherence"
	"informing/internal/core"
	"informing/internal/experiments"
	"informing/internal/govern"
	"informing/internal/multi"
	"informing/internal/obs"
	"informing/internal/sched"
	"informing/internal/stats"
	"informing/internal/store"
	"informing/internal/trace"
	"informing/internal/workload"
)

// maxBodyBytes bounds request bodies. Sized for one full-trace replay
// request (MaxTraceBytes of JSONL plus JSON string-escaping overhead);
// program sources stay capped far lower at MaxSourceBytes each.
const maxBodyBytes = 64 << 20

// Config parameterises a Server. The zero value is valid: every field
// falls back to the defaults documented on it.
type Config struct {
	// Workers is the number of simulation workers, each running one
	// queued flight at a time (internal/sched semantics: <= 0 selects
	// GOMAXPROCS).
	Workers int

	// QueueSize bounds the number of flights waiting for the pool; an
	// arriving cell that finds the queue full is rejected with HTTP 429
	// (0 = 256).
	QueueSize int

	// CacheEntries bounds the result LRU (0 = 4096).
	CacheEntries int

	// MaxCellsPerRequest bounds the batch size of one POST /v1/simulate
	// (0 = 64).
	MaxCellsPerRequest int

	// MaxExperimentCells bounds the benchmarks × machines × plans grid of
	// one POST /v1/experiment (0 = 1024). Without it a small request body
	// could enumerate a cross product large enough to exhaust memory
	// before any simulation runs.
	MaxExperimentCells int

	// MaxInstsCap rejects requests whose budget exceeds it
	// (0 = govern.DefaultBudget).
	MaxInstsCap uint64

	// Cluster, when non-nil and enabled (more than one peer), turns this
	// node into a cluster member: canonical request fingerprints are
	// rendezvous-hashed to an owner node and non-owned requests are
	// forwarded to their owner (serve/forward.go). The cluster must have
	// been built with Version == CodeVersion; New panics on a mismatch —
	// that is a boot-time configuration error, and serving with it would
	// mix results from different simulator builds.
	Cluster *cluster.Cluster

	// ForwardTimeout bounds one forwarded request to a peer, handshake
	// included (0 = 120s — a default-budget cell can legitimately
	// simulate for tens of seconds).
	ForwardTimeout time.Duration

	// Store, when non-nil, is the opened durable result store consulted
	// read-through under the LRU and populated write-behind. The store
	// must have been opened with Version == CodeVersion. nil = RAM-only.
	Store *store.Store

	// Tenants is the admission-control index (nil = anonymous-only,
	// unlimited — the pre-tenant behaviour).
	Tenants *TenantSet

	// Logf receives operational notices (store degradation, recovery).
	// nil = the standard library logger.
	Logf func(format string, args ...any)

	// runCell, when non-nil, replaces the real simulation runner — test
	// seam for exercising the concurrency machinery without simulating.
	runCell func(ctx context.Context, c Request) outcome
}

func (c Config) withDefaults() Config {
	c.Workers = sched.Workers(c.Workers)
	if c.QueueSize == 0 {
		c.QueueSize = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.MaxCellsPerRequest == 0 {
		c.MaxCellsPerRequest = 64
	}
	if c.MaxExperimentCells == 0 {
		c.MaxExperimentCells = 1024
	}
	if c.MaxInstsCap == 0 {
		c.MaxInstsCap = govern.DefaultBudget
	}
	if c.ForwardTimeout == 0 {
		c.ForwardTimeout = 120 * time.Second
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// outcome is one completed computation: exactly one of run/multiRes/replay
// set on success, err on failure. Only successful outcomes enter the cache.
// A successful outcome also carries enc, its encoding (storecodec.go): the
// store payload and the tail of every /v1/simulate cell that serves it.
type outcome struct {
	run      *stats.Run
	multiRes *multi.Result
	replay   *trace.ReplayResult
	enc      []byte
	lazy     func() (outcome, error) // a forwarded outcome's fields, decoded once for all copies
	err      error
}

// flight is one in-flight cell, shared by every request that asked for the
// same fingerprint while it ran: a computation on this node or, when owner
// is set, a forward to the peer that owns the fingerprint (forward.go),
// which falls back to a computation here when the owner gives no
// authoritative answer. Its context is a child of the server context,
// cancelled early when the last interested request leaves — that
// cancellation reaches the simulation through its run governor, and a
// forward through its hop. The tenant is the flight creator's: joiners of
// other tenants share the result but the work is billed to whoever
// caused it.
type flight struct {
	key   string
	req   Request
	tn    *tenant
	owner string // the peer forwarded to; "" = computed here

	ctx    context.Context
	cancel context.CancelFunc

	done   chan struct{} // closed after out and cached are written
	out    outcome
	cached bool // the owner served it from its cache or store

	waiters int // guarded by Server.mu
}

// Server is the simulation service. Create with New, expose via Handler,
// stop with Drain (graceful) and Close.
type Server struct {
	cfg     Config
	sim     *obs.Sim
	met     *metrics
	cache   *lruCache
	store   *store.Store
	tenants *TenantSet
	cluster *cluster.Cluster // nil = single node
	mux     *http.ServeMux

	baseCtx context.Context
	stop    context.CancelFunc
	queue   *fairQueue
	wg      sync.WaitGroup
	ready   sync.Once
	readyCh chan struct{} // closed when the first worker runs

	// storeDegraded latches true on the first store I/O failure; from
	// then on the daemon is RAM-only (healthz reports it).
	storeDegraded atomic.Bool

	mu       sync.Mutex
	flights  map[string]*flight
	draining bool
}

// New builds a Server and starts its workers.
func New(cfg Config) *Server {
	sim := obs.NewSim()
	s := &Server{
		cfg:     cfg.withDefaults(),
		sim:     sim,
		met:     newMetrics(sim.Reg),
		flights: map[string]*flight{},
		readyCh: make(chan struct{}),
	}
	s.store = s.cfg.Store
	s.tenants = s.cfg.Tenants
	if c := s.cfg.Cluster; c != nil && c.Enabled() {
		if c.Version() != CodeVersion {
			// Boot-time misconfiguration: this node would route by one
			// version and serve another. Fail fast, loudly.
			panic(fmt.Sprintf("serve: cluster built for code version %q, server is %q", c.Version(), CodeVersion))
		}
		s.cluster = c
		s.cluster.Bind(sim.Reg)
	}
	if s.tenants == nil {
		// Back-compat default: one anonymous tier, unlimited rate,
		// weight 1.
		s.tenants, _ = NewTenantSet(TenantsFile{})
	}
	s.tenants.bind(sim.Reg)
	s.cache = newLRU(s.cfg.CacheEntries)
	s.queue = newFairQueue(s.cfg.QueueSize, s.met.QueueDepth)
	s.baseCtx, s.stop = context.WithCancel(context.Background())

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/explain", s.handleExplain)
	s.mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "informd simulation service; see POST /v1/simulate, POST /v1/explain, POST /v1/experiment, GET /metrics")
	})

	s.wg.Add(s.cfg.Workers)
	for range s.cfg.Workers {
		go s.work()
	}
	return s
}

// Sim exposes the shared simulator-metrics bundle (tests read sim_instrs
// deltas from it; every served simulation counts into it).
func (s *Server) Sim() *obs.Sim { return s.sim }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain puts the server into draining mode: new simulation requests are
// rejected with 503 while in-flight work completes. /healthz and /readyz
// report the state so load balancers can rotate the instance out.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Close cancels every in-flight computation (their governors abort at the
// next poll), fails everything still queued, and waits for every worker
// to exit. Idempotent.
func (s *Server) Close() {
	s.Drain()
	s.stop()
	s.wg.Wait()
}

// errShutdown is the outcome error of flights interrupted by Close.
var errShutdown = fmt.Errorf("%w: server shutting down", govern.ErrCanceled)

// ---- durable store plumbing ----

// storeUsable reports whether the durable store should be consulted.
func (s *Server) storeUsable() bool {
	return s.store != nil && !s.storeDegraded.Load()
}

// degradeStore latches the daemon into RAM-only operation after a store
// I/O failure. Verification failures (corruption) never reach here — the
// store handles those internally as quarantine+miss; only a filesystem
// that is actually failing demotes the daemon.
func (s *Server) degradeStore(op string, err error) {
	s.met.StoreErrors.Inc()
	if s.storeDegraded.CompareAndSwap(false, true) {
		s.met.StoreDegraded.Inc()
		s.cfg.Logf("serve: store %s failed; degrading to RAM-only operation: %v", op, err)
	}
}

// storeGet is the read-through path under an LRU miss. Any failure mode
// ends in (outcome{}, false) — the caller computes; corrupt payloads were
// already quarantined by the store, undecodable or non-canonical ones are
// dropped here. A hit's encoding equals its payload.
func (s *Server) storeGet(key string) (outcome, bool) {
	if !s.storeUsable() {
		return outcome{}, false
	}
	b, ok, err := s.store.Get(key)
	if err != nil {
		s.degradeStore("read", err)
		return outcome{}, false
	}
	if !ok {
		s.met.StoreMisses.Inc()
		return outcome{}, false
	}
	out, err := decodeOutcome(b)
	if err != nil {
		s.cfg.Logf("serve: dropping undecodable store entry %s: %v", key, err)
		s.met.StoreErrors.Inc()
		_ = s.store.Delete(key)
		return outcome{}, false
	}
	s.met.StoreHits.Inc()
	return out, true
}

// storePut is the write-behind path after a successful computation: it
// stores the outcome's encoding as it is. It runs on the worker goroutine
// before waiters wake, so once a client has its response the result is
// durable (the warm-restart contract).
func (s *Server) storePut(key string, enc []byte) {
	if !s.storeUsable() {
		return
	}
	if err := s.store.Put(key, enc); err != nil {
		s.degradeStore("write", err)
		return
	}
	s.met.StoreWrites.Inc()
}

// ---- submission / single-flight ----

// ticket is the submit result for one cell: an immediate cached outcome
// or a flight to await.
type ticket struct {
	key    string
	cached *outcome
	f      *flight
}

// submit resolves one canonical cell: RAM-cache hit, durable-store hit
// (read-through), join of an identical in-flight flight, or a fresh
// flight. A fresh flight for a key another peer owns (cluster mode,
// serve/forward.go) forwards to that owner on its own goroutine; any
// other is pushed onto the fair queue under tn. With block=false a full
// queue fails fast (the 429 path); with block=true the caller waits for a
// slot (the experiment path, where the client's open request is the
// backpressure). forwarded marks a request that already took one peer
// hop: it never starts or joins a forward (the loop guard — peer lists
// that disagree must converge on a node that does the work, never bounce
// a request around the ring or wait on a hop that waits on it).
func (s *Server) submit(reqCtx context.Context, c Request, tn *tenant, block, forwarded bool) (ticket, *WireError) {
	key := Fingerprint(c)
	if out, ok := s.cache.get(key); ok {
		s.met.Hits.Inc()
		tn.hits.Inc()
		return ticket{key: key, cached: &out}, nil
	}
	if out, ok := s.storeGet(key); ok {
		// Warm the LRU so repeats skip the disk.
		s.cache.add(key, out)
		s.met.Hits.Inc()
		tn.hits.Inc()
		return ticket{key: key, cached: &out}, nil
	}
	var owner string
	if !forwarded && s.cluster != nil {
		if o := s.cluster.Owner(key); o != s.cluster.Self() {
			owner = o
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ticket{}, &WireError{Code: CodeCanceled, Message: "server draining"}
	}
	// Join an identical in-flight flight — but never one whose context is
	// already dead (e.g. during shutdown): joining it would serve this
	// request a cancellation it had nothing to do with. A forwarded
	// request never joins a forward either: that forward may be waiting on
	// the very peer waiting on this request. Its fresh local flight
	// replaces the forward in the index; the forward's waiters keep it.
	if f, ok := s.flights[key]; ok && f.ctx.Err() == nil && (!forwarded || f.owner == "") {
		f.waiters++
		s.mu.Unlock()
		if f.owner != "" {
			s.met.ForwardCoalesced.Inc()
		} else {
			s.met.Coalesced.Inc()
		}
		return ticket{key: key, f: f}, nil
	}
	fctx, fcancel := context.WithCancel(s.baseCtx)
	f := &flight{key: key, req: c, tn: tn, owner: owner, ctx: fctx, cancel: fcancel, done: make(chan struct{}), waiters: 1}
	s.flights[key] = f
	s.met.Inflight.Store(uint64(len(s.flights)))
	if owner != "" {
		s.mu.Unlock()
		s.met.Forwarded.Inc()
		go s.forward(f)
		return ticket{key: key, f: f}, nil
	}
	s.met.Misses.Inc()

	if !block {
		// Enqueue under mu: either the flight is queued before anyone can
		// observe it, or it is removed before anyone could have joined.
		ok, closed := s.queue.tryPush(f)
		if ok {
			s.mu.Unlock()
			return ticket{key: key, f: f}, nil
		}
		delete(s.flights, key)
		s.met.Inflight.Store(uint64(len(s.flights)))
		s.mu.Unlock()
		fcancel()
		if closed {
			return ticket{}, &WireError{Code: CodeCanceled, Message: "server shutting down"}
		}
		s.met.Rejected.Inc()
		return ticket{}, &WireError{Code: CodeOverload, Message: "simulation queue full"}
	}
	s.mu.Unlock()

	switch s.enqueueBlocking(reqCtx, f) {
	case nil:
		return ticket{key: key, f: f}, nil
	case errShutdown:
		return ticket{}, &WireError{Code: CodeCanceled, Message: "server shutting down"}
	}
	s.abandonUnqueued(f)
	return ticket{}, &WireError{Code: CodeCanceled, Message: "request canceled while queueing"}
}

// enqueueBlocking pushes f onto the fair queue, waiting for space. It
// returns nil once f is queued and ctx's error if ctx ends first (f is
// then the caller's to tear down). On shutdown it fails f itself and
// returns errShutdown; shutdown wins over a ctx that ended with it.
func (s *Server) enqueueBlocking(ctx context.Context, f *flight) error {
	for {
		ok, closed := s.queue.tryPush(f)
		if ok {
			return nil
		}
		if !closed {
			select {
			case <-s.queue.space:
				continue
			case <-ctx.Done():
			case <-s.baseCtx.Done():
			}
			if s.baseCtx.Err() == nil {
				return ctx.Err()
			}
		}
		s.complete(f, outcome{err: errShutdown})
		return errShutdown
	}
}

// abandonUnqueued handles a creator giving up on a flight it registered
// but never managed to enqueue. If identical requests joined the flight
// in the meantime, they must not inherit this client's cancellation, so
// enqueue duty moves to a background goroutine; otherwise the flight is
// torn down like any last-waiter departure.
func (s *Server) abandonUnqueued(f *flight) {
	s.mu.Lock()
	f.waiters--
	joined := f.waiters > 0
	if !joined && s.flights[f.key] == f {
		delete(s.flights, f.key)
		s.met.Inflight.Store(uint64(len(s.flights)))
	}
	s.mu.Unlock()
	if !joined {
		f.cancel()
		return
	}
	// f.ctx ends when every joiner left too; leave() has then already
	// torn the flight down.
	go s.enqueueBlocking(f.ctx, f)
}

// await blocks until the ticket's result is available or the request
// context is cancelled. A cancelled waiter leaves the flight; the flight
// itself is cancelled only when its last waiter leaves, so duplicate
// requests keep a shared computation or forward alive.
func (s *Server) await(reqCtx context.Context, t ticket) CellResult {
	if t.cached != nil {
		return cellResult(t.key, *t.cached, true)
	}
	select {
	case <-t.f.done:
		return cellResult(t.key, t.f.out, t.f.cached)
	case <-reqCtx.Done():
		s.leave(t.f)
		return CellResult{Key: t.key, Error: &WireError{
			Code: CodeCanceled, Message: "request canceled: " + reqCtx.Err().Error()}}
	}
}

// leave drops one waiter; the last one out cancels the computation and
// removes the flight from the index, so a later identical request starts
// a fresh computation instead of joining a doomed one and inheriting a
// cancellation caused by some earlier client's disconnect.
func (s *Server) leave(f *flight) {
	s.mu.Lock()
	f.waiters--
	last := f.waiters <= 0
	if last && s.flights[f.key] == f {
		delete(s.flights, f.key)
		s.met.Inflight.Store(uint64(len(s.flights)))
	}
	s.mu.Unlock()
	if last {
		f.cancel()
	}
}

// complete finishes a flight this node computed: a successful result is
// encoded, once, and written to the durable store (write-behind, before
// waiters wake — once a client holds a response, the result survives a
// restart), then published.
func (s *Server) complete(f *flight, out outcome) {
	if out.err == nil {
		out = encoded(out)
	}
	if out.err == nil {
		s.storePut(f.key, out.enc)
	} else {
		s.met.CellErrors.Inc()
	}
	s.publish(f, out, false)
}

// publish hands a flight's outcome to its waiters: a successful result
// enters the RAM cache, the flight leaves the index (so later identical
// requests hit the cache instead), and every waiter wakes. An owner's
// answer to a forward is published without complete: the durable store
// is written only by the owner.
func (s *Server) publish(f *flight, out outcome, cached bool) {
	if out.err == nil {
		s.cache.add(f.key, out)
	}
	s.mu.Lock()
	// Guarded delete: an abandoned flight may already have left the index
	// (leave), and the key may since be owned by a fresh flight.
	if s.flights[f.key] == f {
		delete(s.flights, f.key)
	}
	s.met.Inflight.Store(uint64(len(s.flights)))
	f.out, f.cached = out, cached
	s.mu.Unlock()
	close(f.done)
	f.cancel()
}

// work is one pool worker: it takes the next queued flight (weighted-fair
// across tenants), computes it, publishes the outcome and loops, so a
// worker that finishes starts queued work at once. The bounded queue
// filling up while every worker is busy is the backpressure signal.
func (s *Server) work() {
	defer s.wg.Done()
	s.ready.Do(func() { close(s.readyCh) }) // a worker runs: /readyz turns ready
	for {
		f := s.queue.pop()
		if f == nil {
			select {
			case <-s.queue.ready:
				continue
			case <-s.baseCtx.Done():
				s.failPending()
				return
			}
		}
		start := time.Now()
		s.complete(f, s.compute(f))
		s.met.FlightLatencyMs.Observe(time.Since(start).Milliseconds())
		if s.baseCtx.Err() != nil {
			s.failPending()
			return
		}
	}
}

// failPending closes the queue and completes everything still in it with
// the shutdown error. Every exiting worker calls it; the first takes the
// whole queue and the rest find it empty. After this, blocked enqueuers
// observe the closed queue and fail their own flights — nothing is ever
// parked forever.
func (s *Server) failPending() {
	for _, f := range s.queue.closeAndDrain() {
		s.complete(f, outcome{err: errShutdown})
	}
}

// compute runs one flight's simulation (or the test seam). A flight whose
// every waiter left while it was queued is not simulated at all.
func (s *Server) compute(f *flight) outcome {
	if err := f.ctx.Err(); err != nil {
		return outcome{err: fmt.Errorf("%w: %w", govern.ErrCanceled, err)}
	}
	if s.cfg.runCell != nil {
		return s.cfg.runCell(f.ctx, f.req)
	}
	return runRequest(f.ctx, f.req, s.sim)
}

// runRequest executes one canonical request against the real simulators,
// threading the flight context and the request budget into the engines'
// run governors and the shared obs.Sim into their metric hooks.
func runRequest(ctx context.Context, c Request, sim *obs.Sim) outcome {
	switch c.Kind {
	case KindCell:
		bm, ok := workload.ByName(c.Benchmark)
		if !ok {
			return outcome{err: &WireError{Code: CodeInvalid, Message: fmt.Sprintf("unknown benchmark %q", c.Benchmark)}}
		}
		spec, err := experiments.PlanByLabel(c.Plan)
		if err != nil {
			return outcome{err: &WireError{Code: CodeInvalid, Message: err.Error()}}
		}
		prog, err := workload.Build(bm, spec.Make(), c.Scale)
		if err != nil {
			return outcome{err: err}
		}
		machine, _, err := machineByName(c.Machine)
		if err != nil {
			return outcome{err: &WireError{Code: CodeInvalid, Message: err.Error()}}
		}
		cfg := experiments.ConfigFor(machine, spec.Scheme).WithPolicy(c.Policy).
			WithMaxInsts(c.MaxInsts).WithContext(ctx).WithObs(sim)
		run, err := cfg.Run(prog)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{run: &run}

	case KindProgram:
		prog, err := asm.Assemble(c.Source)
		if err != nil {
			return outcome{err: &WireError{Code: CodeInvalid, Message: err.Error()}}
		}
		machine, _, err := machineByName(c.Machine)
		if err != nil {
			return outcome{err: &WireError{Code: CodeInvalid, Message: err.Error()}}
		}
		scheme, err := schemeByName(c.Scheme)
		if err != nil {
			return outcome{err: &WireError{Code: CodeInvalid, Message: err.Error()}}
		}
		cfg := experiments.ConfigFor(machine, scheme).WithMaxInsts(c.MaxInsts).WithContext(ctx).WithObs(sim)
		run, err := cfg.Run(prog)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{run: &run}

	case KindFig4:
		app, err := coherence.AppByName(c.App, c.Processors)
		if err != nil {
			return outcome{err: &WireError{Code: CodeInvalid, Message: err.Error()}}
		}
		pol, err := coherence.SchemeByName(c.Scheme)
		if err != nil {
			return outcome{err: &WireError{Code: CodeInvalid, Message: err.Error()}}
		}
		mcfg := multi.DefaultConfig()
		mcfg.Processors = c.Processors
		mcfg.Govern = govern.Config{Ctx: ctx, MaxInsts: c.MaxRefs}
		mcfg.Obs = sim
		res, err := multi.Simulate(app, pol, mcfg)
		if err != nil {
			return outcome{err: err}
		}
		return outcome{multiRes: &res}

	case KindTrace:
		machine, _, err := machineByName(c.Machine)
		if err != nil {
			return outcome{err: &WireError{Code: CodeInvalid, Message: err.Error()}}
		}
		res, err := trace.Replay(strings.NewReader(c.Trace), trace.ReplayConfig{
			Hier:    experiments.ConfigFor(machine, core.Off).HierConfig(),
			Reader:  trace.ReaderConfig{AllowSampled: c.AllowSampled},
			Ctx:     ctx,
			MaxRefs: c.MaxRefs,
		})
		if err != nil {
			// Budget/cancel flow through wireErr's classification; every
			// other replay failure (parse, validation, sampled-without-
			// opt-in, missing addr, tid bound) is the client's trace text.
			if errors.Is(err, govern.ErrBudget) || errors.Is(err, govern.ErrCanceled) || errors.Is(err, govern.ErrLivelock) {
				return outcome{err: err}
			}
			return outcome{err: &WireError{Code: CodeInvalid, Message: err.Error()}}
		}
		return outcome{replay: res}
	}
	return outcome{err: &WireError{Code: CodeInvalid, Message: fmt.Sprintf("unknown kind %q", c.Kind)}}
}

func cellResult(key string, out outcome, cached bool) CellResult {
	if out.err != nil {
		return CellResult{Key: key, Error: wireErr(out.err)}
	}
	return CellResult{Key: key, Cached: cached, Run: out.run, Multi: out.multiRes, Replay: out.replay, enc: out.enc, lazy: out.lazy}
}

// decoded sets a forwarded result's fields, for the consumers that read
// them: /v1/explain and /v1/experiment; /v1/simulate splices enc.
func (cr CellResult) decoded() CellResult {
	if cr.lazy != nil {
		out, err := cr.lazy()
		cr = cellResult(cr.Key, outcome{run: out.run, multiRes: out.multiRes, replay: out.replay, err: err}, cr.Cached)
	}
	return cr
}

// ---- HTTP handlers ----

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// writeJSON writes v as one line of compact JSON. A failed write is a
// client that went away, and there is no one left to answer.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeSimulate writes the /v1/simulate body: byte for byte what
// writeJSON writes for SimulateResponse{Results: results}, without
// encoding any result again. A successful cell is spliced from its
// outcome's encoding, {"run":...} or the like: CellResult's fields are
// key, cached, then the one of run/multi/replay that storedOutcome holds,
// and a key is 32 hex characters that need no escaping, so the head
// {"key":"<key>","cached":<bool>, followed by the encoding without its
// opening brace is json.Marshal of the CellResult. Error cells have no
// encoding and go through encoding/json, which cannot fail on their
// strings and bools. As in writeJSON, failed writes are dropped.
func writeSimulate(w http.ResponseWriter, results []CellResult) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	head := append(make([]byte, 0, 96), `{"results":[`...)
	for i, cr := range results {
		if i > 0 {
			head = append(head, ',')
		}
		body := cr.enc
		if body == nil {
			body, _ = json.Marshal(cr)
		} else {
			head = append(head, `{"key":"`...)
			head = append(head, cr.Key...)
			head = append(head, `","cached":`...)
			head = strconv.AppendBool(head, cr.Cached)
			head = append(head, ',')
			body = body[1:]
		}
		_, _ = w.Write(head)
		_, _ = w.Write(body)
		head = head[:0]
	}
	_, _ = w.Write(append(head, "]}\n"...))
}

// errorBody is the top-level body of whole-request failures.
type errorBody struct {
	Error *WireError `json:"error"`
}

func writeError(w http.ResponseWriter, status int, we *WireError) {
	writeJSON(w, status, errorBody{Error: we})
}

// writeErrorRetry is writeError plus an honest Retry-After header — every
// 429 goes through here with a retry the server actually computed, never
// a hardcoded guess.
func writeErrorRetry(w http.ResponseWriter, status int, we *WireError, retryAfterSecs int) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
	writeJSON(w, status, errorBody{Error: we})
}

// overloadRetryAfter computes the Retry-After of a queue-overflow 429
// from the live queue depth and the mean per-flight service time.
func (s *Server) overloadRetryAfter() int {
	return queueRetryAfter(s.queue.depth(), s.cfg.Workers, s.met.FlightLatencyMs.Mean())
}

// queueRetryAfter is the wait before a retried cell finds a free queue
// slot: the depth queued flights plus the retry itself run
// ⌈(depth+1)/workers⌉ flights deep per worker, each taking meanMs.
// Clamped to [1, 30]; before any flight has completed the estimate
// assumes one second per flight.
func queueRetryAfter(depth, workers int, meanMs float64) int {
	if meanMs <= 0 {
		meanMs = 1000
	}
	perWorker := (depth + workers) / workers
	return clampRetryAfter(int(math.Ceil(float64(perWorker) * meanMs / 1000)))
}

func (s *Server) observeLatency(start time.Time) {
	s.met.LatencyMs.Observe(time.Since(start).Milliseconds())
}

// readJSON decodes a request body into v with encoding/json; the cells
// bodies of simulate and explain go through readCells instead. On failure
// the error response has been written.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tokErr := dec.Token(); tokErr != io.EOF {
			err = errors.New("data after the top-level value")
		}
	}
	if err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// readCells reads and decodes a {"cells":[...]} body with the wire codec
// (wire.go), or a raw trace hop body when rawTrace is set: the caller sets
// it only for a forwarded hop that resolveTenant authenticated. On
// failure the error response has been written.
func readCells(w http.ResponseWriter, r *http.Request, rawTrace bool) ([]Request, bool) {
	decode := decodeCells
	if rawTrace {
		decode = decodeTraceHop
	}
	var cells []Request
	body, err := readBody(w, r)
	if err == nil {
		cells, err = decode(body)
	}
	if err != nil {
		writeBodyError(w, err)
		return nil, false
	}
	return cells, true
}

// readBody reads the whole body into one buffer of at most maxBodyBytes.
// The buffer doubles as it fills; Content-Length only caps a doubling, so
// an honest length makes the last step exact and a false one costs at
// most twice what actually arrived, never the length it claimed.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf := make([]byte, 0, 512)
	for {
		if len(buf) == cap(buf) {
			// One byte past the limit lets MaxBytesReader report it.
			n := min(2*cap(buf), maxBodyBytes+1)
			if cl := r.ContentLength; cl >= int64(len(buf)) && cl < int64(n) {
				n = int(cl) + 1 // room to read EOF without growing again
			}
			buf = append(make([]byte, 0, n), buf...)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// writeBodyError answers an unreadable body: 413 for one over
// maxBodyBytes, so clients learn the actual problem, else 400.
func writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, &WireError{
			Code: CodeInvalid, Message: fmt.Sprintf("request body above limit %d bytes", mbe.Limit)})
		return
	}
	writeError(w, http.StatusBadRequest, &WireError{Code: CodeInvalid, Message: "bad request body: " + err.Error()})
}

// resolveTenant authenticates the request (before any body validation:
// an unauthenticated client learns nothing beyond 401). On failure the
// response has been written.
//
// A forwarded request (X-Informd-Forwarded) is handled differently: the
// tenant was already resolved AND admitted at the ingress node — it is
// carried by name (X-Informd-Tenant) so the owner attributes metrics and
// fair-queue weight to the right tenant without charging its token
// bucket a second time. Because that branch skips both the API-key check
// and the bucket, it is only honored when the hop proves it originates
// from a cluster member: the shared cluster secret must match
// (X-Informd-Cluster-Auth, constant-time compare), and a node that is
// not a cluster member refuses the header outright — any client can
// type the header, only peers hold the secret. The HeaderForwarded value
// itself is the forwarding node's CodeVersion (rejected with 409 on
// mismatch, the per-request half of the cluster handshake).
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	if v := r.Header.Get(HeaderForwarded); v != "" {
		if s.cluster == nil {
			writeError(w, http.StatusForbidden, &WireError{
				Code:    CodeUnauthorized,
				Message: "forwarded cluster hop refused: this node is not a cluster member",
			})
			return nil, false
		}
		auth := r.Header.Get(HeaderClusterAuth)
		if subtle.ConstantTimeCompare([]byte(auth), []byte(s.cluster.Secret())) != 1 {
			writeError(w, http.StatusForbidden, &WireError{
				Code:    CodeUnauthorized,
				Message: "forwarded cluster hop refused: bad or missing cluster secret",
			})
			return nil, false
		}
		if v != CodeVersion {
			writeError(w, http.StatusConflict, &WireError{
				Code:    CodeInvalid,
				Message: fmt.Sprintf("forwarding peer runs code version %q, this node runs %q", v, CodeVersion),
			})
			return nil, false
		}
		tn := s.tenants.resolveForwarded(r.Header.Get(HeaderForwardedTenant))
		tn.reqs.Inc()
		return tn, true
	}
	tn, we := s.tenants.resolve(r)
	if we != nil {
		writeError(w, http.StatusUnauthorized, we)
		return nil, false
	}
	tn.reqs.Inc()
	return tn, true
}

// admitTenant rate-admits n cells for an already-resolved tenant — after
// validation, so an invalid request never drains the bucket. Forwarded
// requests are never re-admitted: the ingress node already charged the
// tenant's bucket, and charging both hops would bill every cluster-routed
// cell twice (the cell counters still move — they count cells served by
// this node). Every endpoint counts its cells here, so serve_cells_total
// is the sum of its per-tenant variants. On failure the response has
// been written.
func (s *Server) admitTenant(w http.ResponseWriter, tn *tenant, n int, forwarded bool) bool {
	s.met.Cells.Add(uint64(n))
	tn.cells.Add(uint64(n))
	if forwarded {
		s.met.ForwardedServed.Add(uint64(n))
		return true
	}
	if retry, we := s.tenants.admit(tn, n); we != nil {
		s.met.RateLimited.Inc()
		tn.limited.Inc()
		writeErrorRetry(w, http.StatusTooManyRequests, we, retry)
		return false
	}
	return true
}

// begin is the prologue every endpoint shares: it counts the request,
// applies the drain gate, resolves the tenant and reads the forwarded
// flag. On failure the response has been written.
func (s *Server) begin(w http.ResponseWriter, r *http.Request) (tn *tenant, forwarded, ok bool) {
	s.met.Requests.Inc()
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, &WireError{Code: CodeCanceled, Message: "server draining"})
		return nil, false, false
	}
	tn, ok = s.resolveTenant(w, r)
	return tn, r.Header.Get(HeaderForwarded) != "", ok
}

// submitAll submits every cell before awaiting any, so a request's cells
// queue together and run concurrently on whichever workers are free. A
// zero cell (one that failed Canonicalize) is skipped and keeps a zero
// ticket. On failure every ticket already registered is released.
func (s *Server) submitAll(ctx context.Context, cells []Request, tn *tenant, block, forwarded bool) ([]ticket, *WireError) {
	tickets := make([]ticket, len(cells))
	for i, c := range cells {
		if c.Kind == "" {
			continue
		}
		t, we := s.submit(ctx, c, tn, block, forwarded)
		if we != nil {
			s.release(tickets[:i])
			return nil, we
		}
		tickets[i] = t
	}
	return tickets, nil
}

// release drops the request's waiter on every flight among tickets it
// will not await, so abandoned flights are cancelled instead of
// simulating or forwarding for nobody.
func (s *Server) release(tickets []ticket) {
	for _, t := range tickets {
		if t.f != nil {
			s.leave(t.f)
		}
	}
}

// serveCells is the one cell pipeline behind /v1/simulate and
// /v1/explain: begin → decode → bound → canonicalize (in place) → admit
// → submit all → await all → render. A cell that fails canonicalization
// is answered with an "invalid" error in its slot and left zero in cells;
// render receives the canonical cells and their results and writes the
// 200 response.
func (s *Server) serveCells(w http.ResponseWriter, r *http.Request, render func(w http.ResponseWriter, cells []Request, results []CellResult)) {
	defer s.observeLatency(time.Now())
	tn, forwarded, ok := s.begin(w, r)
	if !ok {
		return
	}
	cells, ok := readCells(w, r, forwarded && r.Header.Get(HeaderRawTrace) != "")
	if !ok {
		return
	}
	if len(cells) == 0 {
		writeError(w, http.StatusBadRequest, &WireError{Code: CodeInvalid, Message: "no cells in request"})
		return
	}
	if len(cells) > s.cfg.MaxCellsPerRequest {
		writeError(w, http.StatusBadRequest, &WireError{
			Code: CodeInvalid, Message: fmt.Sprintf("%d cells above per-request limit %d", len(cells), s.cfg.MaxCellsPerRequest)})
		return
	}
	results := make([]CellResult, len(cells))
	for i := range cells {
		var err error
		if cells[i], err = Canonicalize(cells[i], s.cfg.MaxInstsCap); err != nil {
			results[i].Error = &WireError{Code: CodeInvalid, Message: err.Error()}
		}
	}
	if !s.admitTenant(w, tn, len(cells), forwarded) {
		return
	}
	tickets, we := s.submitAll(r.Context(), cells, tn, false, forwarded)
	if we != nil {
		// Drain or shutdown is a 503; a full queue is a 429 with the wait
		// the server computed.
		if we.Code == CodeCanceled {
			writeError(w, http.StatusServiceUnavailable, we)
		} else {
			writeErrorRetry(w, http.StatusTooManyRequests, we, s.overloadRetryAfter())
		}
		return
	}
	for i, t := range tickets {
		if cells[i].Kind != "" {
			results[i] = s.await(r.Context(), t)
		}
		if e := results[i].Error; e != nil && e.Code != CodeCanceled {
			s.met.CellErrors.Inc()
		}
	}
	render(w, cells, results)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.serveCells(w, r, func(w http.ResponseWriter, _ []Request, results []CellResult) {
		writeSimulate(w, results)
	})
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	defer s.observeLatency(time.Now())
	tn, forwarded, ok := s.begin(w, r)
	if !ok {
		return
	}
	var req ExperimentRequest
	if !readJSON(w, r, &req) {
		return
	}

	var (
		title    string
		bms      []workload.Benchmark
		specs    []experiments.PlanSpec
		baseline string
		summary  bool
	)
	if req.Name != "" {
		ne, err := experiments.Named(req.Name)
		if err != nil {
			writeError(w, http.StatusBadRequest, &WireError{Code: CodeInvalid, Message: err.Error()})
			return
		}
		title, bms, specs, baseline, summary = ne.Title, ne.Benchmarks, ne.Specs, ne.Baseline, ne.Summary
	} else {
		if len(req.Benchmarks) == 0 || len(req.Plans) == 0 {
			writeError(w, http.StatusBadRequest, &WireError{
				Code: CodeInvalid, Message: "experiment needs a name or benchmarks+plans"})
			return
		}
		seenBm := make(map[string]bool, len(req.Benchmarks))
		for _, name := range req.Benchmarks {
			bm, ok := workload.ByName(name)
			if !ok {
				writeError(w, http.StatusBadRequest, &WireError{Code: CodeInvalid, Message: fmt.Sprintf("unknown benchmark %q", name)})
				return
			}
			if seenBm[bm.Name] {
				writeError(w, http.StatusBadRequest, &WireError{Code: CodeInvalid, Message: fmt.Sprintf("duplicate benchmark %q", bm.Name)})
				return
			}
			seenBm[bm.Name] = true
			bms = append(bms, bm)
		}
		seenPlan := make(map[string]bool, len(req.Plans))
		for _, label := range req.Plans {
			spec, err := experiments.PlanByLabel(label)
			if err != nil {
				writeError(w, http.StatusBadRequest, &WireError{Code: CodeInvalid, Message: err.Error()})
				return
			}
			if seenPlan[spec.Label] {
				writeError(w, http.StatusBadRequest, &WireError{Code: CodeInvalid, Message: fmt.Sprintf("duplicate plan %q", spec.Label)})
				return
			}
			seenPlan[spec.Label] = true
			specs = append(specs, spec)
		}
		title = req.Title
		if title == "" {
			title = "custom experiment"
		}
		baseline = req.Baseline
	}
	baseIdx, err := experiments.BaselineIndex(specs, baseline)
	if err != nil {
		writeError(w, http.StatusBadRequest, &WireError{Code: CodeInvalid, Message: err.Error()})
		return
	}

	// Enumerate cells in the harness's benchmark → machine → plan order;
	// the served tables must be byte-identical to the sequential CLI's.
	// Every cell is canonicalized before admission, so an invalid
	// experiment never drains the tenant's bucket.
	machines := []string{MachineOOO, MachineInOrder}
	if total := len(bms) * len(machines) * len(specs); total > s.cfg.MaxExperimentCells {
		writeError(w, http.StatusBadRequest, &WireError{
			Code: CodeInvalid, Message: fmt.Sprintf("experiment grid of %d cells above limit %d", total, s.cfg.MaxExperimentCells)})
		return
	}
	var cells []Request
	for _, bm := range bms {
		for _, m := range machines {
			for _, spec := range specs {
				c, err := Canonicalize(Request{Kind: KindCell, Benchmark: bm.Name, Plan: spec.Label,
					Machine: m, Scale: req.Scale, MaxInsts: req.MaxInsts}, s.cfg.MaxInstsCap)
				if err != nil {
					writeError(w, http.StatusBadRequest, &WireError{Code: CodeInvalid, Message: err.Error()})
					return
				}
				cells = append(cells, c)
			}
		}
	}
	if !s.admitTenant(w, tn, len(cells), forwarded) {
		return
	}

	// Blocking submit: an experiment larger than the queue trickles in as
	// the pool drains; the open request is the backpressure. In cluster
	// mode this IS the scatter: a non-owned cell's flight forwards on its
	// own goroutine, so its ticket returns at once (the forwards run
	// concurrently, bounded by the per-peer connection pool), while
	// self-owned cells flow through the local queue — and the in-order
	// await below is the gather, reusing sched's deterministic-merge
	// contract.
	tickets, we := s.submitAll(r.Context(), cells, tn, true, forwarded)
	if we != nil {
		writeError(w, http.StatusServiceUnavailable, we)
		return
	}
	resp := ExperimentResponse{Name: req.Name, Cells: len(cells)}
	for _, t := range tickets {
		if t.cached != nil {
			resp.CacheHits++
		} else {
			resp.Computed++
		}
	}

	results := make([]experiments.Result, len(cells))
	for i, t := range tickets {
		cr := s.await(r.Context(), t).decoded()
		if cr.Error != nil {
			// The experiment fails as a whole.
			s.release(tickets[i+1:])
			status := http.StatusInternalServerError
			switch cr.Error.Code {
			case CodeCanceled:
				status = http.StatusServiceUnavailable
			case CodeBudget, CodeLivelock:
				status = http.StatusUnprocessableEntity
			}
			s.met.CellErrors.Inc()
			writeError(w, status, cr.Error)
			return
		}
		machine, _, _ := machineByName(cells[i].Machine)
		results[i] = experiments.Result{Benchmark: cells[i].Benchmark, Machine: machine, Plan: cells[i].Plan, Run: *cr.Run}
	}
	experiments.Normalize(results, len(specs), baseIdx)

	resp.Table = experiments.FormatFigure(title, results)
	if summary {
		resp.Summary = experiments.FormatOverheadSummary(results)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.sim.Reg.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// storeStatus summarises the durable store for /healthz.
func (s *Server) storeStatus() map[string]any {
	switch {
	case s.store == nil:
		return map[string]any{"state": "disabled"}
	case s.storeDegraded.Load():
		return map[string]any{"state": "degraded"}
	default:
		return map[string]any{
			"state":   "ok",
			"entries": s.store.Len(),
			"bytes":   s.store.Bytes(),
		}
	}
}

// handleHealthz is liveness: it answers 200 whenever the process can
// serve HTTP at all, and reports operational detail (draining, store
// degradation, cache occupancy). Routing decisions belong on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.isDraining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        status,
		"code_version":  CodeVersion,
		"cache_entries": s.cache.len(),
		"store":         s.storeStatus(),
	})
}

// clusterStatus summarises cluster membership and peer health for
// /readyz. Peers being down never makes the node unready — non-owned
// fingerprints degrade to local compute, which is correct, just
// duplicated work — but the detail tells an operator *why* forwards are
// not happening.
func (s *Server) clusterStatus() map[string]any {
	if s.cluster == nil {
		return map[string]any{"ready": true, "mode": "single-node"}
	}
	peers := s.cluster.Status()
	up := 0
	for _, st := range peers {
		if st.State == "up" {
			up++
		}
	}
	return map[string]any{
		"ready":       true,
		"mode":        "cluster",
		"self":        s.cluster.Self(),
		"peers_total": len(peers),
		"peers_up":    up,
		"peers":       peers,
	}
}

// handleReadyz is readiness: 200 only once the store has been opened and
// recovered (a *Server is only constructible with an opened store) and
// the first worker is running, and never while draining — so a rotation
// never routes traffic to a cold or recovering daemon.
//
// The body carries per-subsystem detail so an operator can tell WHY a
// node is not ready (workers not started? draining?) and what state
// the degradable subsystems are in (store demoted to RAM-only? peers
// unreachable?). Only the worker pool that takes flights off the queue
// and draining decide the status code: store degradation and peer
// outages degrade service quality, never correctness, so they must not
// rotate the node out. The pool's JSON key is "dispatcher": it is wire
// API, kept for compatibility with existing probes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	started := false
	select {
	case <-s.readyCh:
		started = true
	default:
	}
	draining := s.isDraining()

	status, httpStatus := "ready", http.StatusOK
	switch {
	case !started:
		status, httpStatus = "starting", http.StatusServiceUnavailable
	case draining:
		status, httpStatus = "draining", http.StatusServiceUnavailable
	}

	storeSub := s.storeStatus()
	storeSub["ready"] = true // degraded = RAM-only, still serving correct answers
	writeJSON(w, httpStatus, map[string]any{
		"status": status,
		"subsystems": map[string]any{
			"dispatcher": map[string]any{"ready": started && !draining, "running": started, "draining": draining},
			"store":      storeSub,
			"cluster":    s.clusterStatus(),
		},
	})
}
