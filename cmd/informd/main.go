// Command informd serves the paper's simulations over HTTP: a
// long-running daemon that validates, queues and caches simulation
// requests (see internal/serve and EXPERIMENTS.md "Simulation as a
// service").
//
//	informd -listen 127.0.0.1:8372
//
// Endpoints:
//
//	POST /v1/simulate     batch of cells: handler-overhead cells, Figure 4
//	                      coherence points, or assembler programs; cells
//	                      accept a "policy" field selecting the replacement
//	                      policy (lru, srrip, brrip, trrip)
//	POST /v1/explain      the same cells, answered with the per-level miss
//	                      taxonomy (compulsory/capacity/conflict/coherence
//	                      counts and fractions) instead of timing
//	POST /v1/experiment   a named §4.2 experiment (fig2, fig3, h100,
//	                      condcode, sampling, counters, prefetch) or a
//	                      custom benchmarks × plans grid; returns the CLI
//	                      tables
//	GET  /metrics         serve_* and sim_* metrics (internal/obs registry)
//	GET  /healthz         liveness, code version, cache/store state
//	GET  /readyz          readiness (store recovered, workers running)
//
// Identical requests are served from a fingerprint-keyed LRU cache, backed
// by an optional durable on-disk store (-store-dir) so a restarted daemon
// starts warm; distinct concurrent requests are batched onto one worker
// pool. Requests may carry an API key (X-API-Key or Authorization: Bearer)
// mapped to a tenant by -tenants-file for per-tenant rate limits and
// weighted-fair scheduling. When the bounded queue fills, POST /v1/simulate
// responds 429 (backpressure) with a computed Retry-After. SIGINT/SIGTERM
// drains gracefully: new work is rejected with 503, in-flight simulations
// finish (up to -drain-timeout, then their run governors abort them).
//
// With -self and -peers the daemon joins a static cluster: request
// fingerprints are rendezvous-hashed to an owner node and non-owned
// requests are forwarded there, making the cache and single-flight
// cluster-wide (README "Operating an informd cluster", DESIGN.md §15).
// Cluster mode requires a shared secret (-cluster-secret or the
// INFORMD_CLUSTER_SECRET env var): forwarded peer hops skip API-key
// auth and tenant admission — both already performed at the ingress
// node — so every hop must prove it comes from a cluster member, and a
// node refuses forged forwarded headers (403) without it.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"informing/internal/cluster"
	"informing/internal/govern"
	"informing/internal/serve"
	"informing/internal/store"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:8372", "listen address (\":0\" picks an ephemeral port)")
		jobs         = flag.Int("j", runtime.GOMAXPROCS(0), "simulation worker count")
		queueSize    = flag.Int("queue", 0, "bounded queue size; overflow returns 429 (0 = default 256)")
		cacheSize    = flag.Int("cache", 0, "result cache entries (0 = default 4096)")
		maxCells     = flag.Int("max-cells", 0, "max cells per /v1/simulate request (0 = default 64)")
		maxExpCells  = flag.Int("max-exp-cells", 0, "max grid cells per /v1/experiment request (0 = default 1024)")
		maxInstsCap  = flag.Uint64("maxinsts-cap", 0, "reject requests budgeted above this (0 = 1e9)")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget before in-flight runs are aborted")
		storeDir     = flag.String("store-dir", "", "durable result store directory (empty = RAM-only)")
		storeMax     = flag.Int64("store-max-bytes", 0, "durable store size bound in bytes (0 = default 256 MiB)")
		tenantsFile  = flag.String("tenants-file", "", "JSON tenant keyfile for per-tenant admission control (empty = anonymous only, unlimited)")
		selfURL      = flag.String("self", "", "this node's base URL as peers reach it (cluster mode; must appear in -peers)")
		peersList    = flag.String("peers", "", "comma-separated base URLs of every cluster node, this one included (empty = single node)")
		clusterKey   = flag.String("cluster-secret", "", "shared secret authenticating forwarded peer hops (cluster mode; prefer the INFORMD_CLUSTER_SECRET env var to keep it out of process listings)")
		fwdTimeout   = flag.Duration("forward-timeout", 0, "bound on one forwarded peer request, handshake included (0 = default 120s)")
		peerConns    = flag.Int("peer-conns", 0, "max pooled connections per peer (0 = default 8)")
	)
	flag.Parse()

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *storeDir, Version: serve.CodeVersion, MaxBytes: *storeMax})
		if err != nil {
			fmt.Fprintf(os.Stderr, "informd: store: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("informd: store open at %s (%d entries, %d bytes)\n", *storeDir, st.Len(), st.Bytes())
	}

	var tenants *serve.TenantSet
	if *tenantsFile != "" {
		var err error
		tenants, err = serve.LoadTenantsFile(*tenantsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "informd: %v\n", err)
			os.Exit(1)
		}
	}

	var cl *cluster.Cluster
	if *peersList != "" {
		if *selfURL == "" {
			fmt.Fprintln(os.Stderr, "informd: -peers requires -self (this node's URL as peers reach it)")
			os.Exit(1)
		}
		secret := *clusterKey
		if secret == "" {
			secret = os.Getenv("INFORMD_CLUSTER_SECRET")
		}
		peers := strings.Split(*peersList, ",")
		if len(peers) > 1 && secret == "" {
			fmt.Fprintln(os.Stderr, "informd: cluster mode requires a shared secret (-cluster-secret or INFORMD_CLUSTER_SECRET): forwarded peer hops bypass API-key auth and must be authenticated")
			os.Exit(1)
		}
		var err error
		cl, err = cluster.New(cluster.Config{
			Self:            *selfURL,
			Peers:           peers,
			Version:         serve.CodeVersion,
			Secret:          secret,
			MaxConnsPerPeer: *peerConns,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "informd: cluster: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("informd: cluster member %s of %d nodes\n", cl.Self(), len(cl.Peers()))
	}

	srv := serve.New(serve.Config{
		Workers:            *jobs,
		QueueSize:          *queueSize,
		CacheEntries:       *cacheSize,
		MaxCellsPerRequest: *maxCells,
		MaxExperimentCells: *maxExpCells,
		MaxInstsCap:        *maxInstsCap,
		Cluster:            cl,
		ForwardTimeout:     *fwdTimeout,
		Store:              st,
		Tenants:            tenants,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "informd: %v\n", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}

	// The listening line goes to stdout (and is the last thing printed
	// before serving) so scripts and the smoke test can scrape the bound
	// address when ":0" picked an ephemeral port.
	fmt.Printf("informd: listening on http://%s (workers=%d, code=%s)\n",
		ln.Addr(), *jobs, serve.CodeVersion)

	ctx, stopSignals := govern.SignalContext(nil)
	defer stopSignals()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "informd: %v\n", err)
		srv.Close()
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: reject new simulation work, let the HTTP layer
	// finish in-flight requests within the budget, then abort whatever is
	// left through the run governors.
	fmt.Println("informd: draining (signal received)")
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "informd: shutdown: %v\n", err)
	}
	srv.Close()
	fmt.Println("informd: stopped")
}
