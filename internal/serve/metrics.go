package serve

import "informing/internal/obs"

// Canonical serving-layer metric names, registered next to the sim_*
// metrics in the same obs.Registry so GET /metrics exposes one coherent
// snapshot: how much the server is being asked, how much of it the cache
// absorbs, and how much simulation actually ran (sim_instrs et al.).
const (
	MetricRequests   = "serve_requests_total"
	MetricCells      = "serve_cells_total"
	MetricHits       = "serve_cache_hits"
	MetricMisses     = "serve_cache_misses"
	MetricCoalesced  = "serve_coalesced"
	MetricRejected   = "serve_rejected_total"
	MetricCellErrors = "serve_cell_errors"
	MetricInflight   = "serve_inflight"    // gauge: flights not yet completed, forwards included
	MetricQueueDepth = "serve_queue_depth" // gauge: flights waiting for the pool
	MetricLatencyMs  = "serve_request_latency_ms"

	// Durable-store metrics (PR 6). serve_store_degraded counts
	// degradation events: it moves 0 → 1 when a store I/O failure demotes
	// the daemon to RAM-only operation for the rest of its life.
	MetricStoreHits     = "serve_store_hits"
	MetricStoreMisses   = "serve_store_misses"
	MetricStoreWrites   = "serve_store_writes"
	MetricStoreErrors   = "serve_store_errors"
	MetricStoreDegraded = "serve_store_degraded"

	// Admission-control metrics. Per-tenant variants of Requests, Cells,
	// Hits and RateLimited are registered as name{tenant="..."} (see
	// TenantMetricName).
	MetricRateLimited     = "serve_rate_limited_total"
	MetricFlightLatencyMs = "serve_flight_latency_ms" // one observation per flight a worker runs

	// Cluster-forwarding metrics (DESIGN.md §15). Transport-level peer
	// counters (cluster_forwards_total, cluster_peer_up{peer=...}) live
	// in internal/cluster and share this registry via Cluster.Bind.
	MetricForwarded        = "serve_forwarded_total"   // cells routed to their owner peer
	MetricForwardCoalesced = "serve_forward_coalesced" // waiters joining an in-flight forward
	MetricForwardFallbacks = "serve_forward_fallbacks" // forwards degraded to local compute
	MetricForwardedServed  = "serve_forwarded_served"  // cells this node served for peers
)

// latencyMsBounds spans a cached hit (sub-millisecond) to a full
// 100M-instruction cell (tens of seconds).
var latencyMsBounds = []int64{1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000, 60_000}

// metrics bundles the pre-resolved serving-layer handles (the obs.Sim
// pattern: the request path touches handles, never the registry).
type metrics struct {
	Requests   *obs.Counter
	Cells      *obs.Counter
	Hits       *obs.Counter
	Misses     *obs.Counter
	Coalesced  *obs.Counter
	Rejected   *obs.Counter
	CellErrors *obs.Counter
	Inflight   *obs.Counter
	QueueDepth *obs.Counter
	LatencyMs  *obs.Histogram

	StoreHits     *obs.Counter
	StoreMisses   *obs.Counter
	StoreWrites   *obs.Counter
	StoreErrors   *obs.Counter
	StoreDegraded *obs.Counter

	RateLimited     *obs.Counter
	FlightLatencyMs *obs.Histogram

	Forwarded        *obs.Counter
	ForwardCoalesced *obs.Counter
	ForwardFallbacks *obs.Counter
	ForwardedServed  *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		Requests:   reg.Counter(MetricRequests),
		Cells:      reg.Counter(MetricCells),
		Hits:       reg.Counter(MetricHits),
		Misses:     reg.Counter(MetricMisses),
		Coalesced:  reg.Counter(MetricCoalesced),
		Rejected:   reg.Counter(MetricRejected),
		CellErrors: reg.Counter(MetricCellErrors),
		Inflight:   reg.Counter(MetricInflight),
		QueueDepth: reg.Counter(MetricQueueDepth),
		LatencyMs:  reg.Histogram(MetricLatencyMs, latencyMsBounds),

		StoreHits:     reg.Counter(MetricStoreHits),
		StoreMisses:   reg.Counter(MetricStoreMisses),
		StoreWrites:   reg.Counter(MetricStoreWrites),
		StoreErrors:   reg.Counter(MetricStoreErrors),
		StoreDegraded: reg.Counter(MetricStoreDegraded),

		RateLimited:     reg.Counter(MetricRateLimited),
		FlightLatencyMs: reg.Histogram(MetricFlightLatencyMs, latencyMsBounds),

		Forwarded:        reg.Counter(MetricForwarded),
		ForwardCoalesced: reg.Counter(MetricForwardCoalesced),
		ForwardFallbacks: reg.Counter(MetricForwardFallbacks),
		ForwardedServed:  reg.Counter(MetricForwardedServed),
	}
}
