// Package cluster is informd's coordinator-free cluster substrate: a
// static peer list, rendezvous (HRW) hashing from request fingerprints to
// owner nodes, and a forwarding HTTP client with per-peer health tracking
// and a code-version handshake.
//
// The design is deliberately stateless between nodes: there is no
// membership protocol, no gossip and no leader. Every node is configured
// with the same peer set (-peers) and its own identity (-self), computes
// the same fingerprint→owner mapping (rendezvous.go), and forwards
// non-owned requests to their owner over plain HTTP. A peer that cannot
// be reached is marked down for a cooldown and the caller degrades to
// computing locally — results are deterministic, so serving a non-owned
// fingerprint locally is always correct, merely a duplicated computation.
// A peer running a different simulator build (CodeVersion mismatch,
// discovered by the /healthz handshake) is refused the same way: results
// from a different build must never enter this node's responses.
//
// Everything is testable in-process: peers are URLs, so httptest servers
// are full-fidelity cluster nodes.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"informing/internal/obs"
)

// Cluster metric names. Per-peer gauges are registered as
// cluster_peer_up{peer="<url>"} (1 = reachable and version-verified,
// 0 = down, unverified or incompatible).
const (
	MetricForwards          = "cluster_forwards_total"
	MetricForwardErrors     = "cluster_forward_errors"
	MetricHandshakes        = "cluster_handshakes_total"
	MetricHandshakeFailures = "cluster_handshake_failures"
	MetricPeerUp            = "cluster_peer_up"
)

// PeerUpMetricName returns the per-peer gauge name for url.
func PeerUpMetricName(url string) string {
	return fmt.Sprintf("%s{peer=%q}", MetricPeerUp, url)
}

// Sentinel errors Forward returns without having sent the request.
var (
	// ErrPeerDown: the peer failed recently and its retry cooldown has
	// not elapsed; the caller should compute locally.
	ErrPeerDown = errors.New("cluster: peer down")
	// ErrVersionMismatch: the peer answered the handshake with a
	// different CodeVersion; its results are not valid for this build.
	ErrVersionMismatch = errors.New("cluster: peer code version mismatch")
)

// Config parameterises a Cluster.
type Config struct {
	// Self is this node's own base URL and must appear in Peers.
	Self string

	// Peers is the full static peer list (base URLs, including Self).
	// Order is irrelevant: ownership is rendezvous-hashed over the set.
	Peers []string

	// Version is the simulator code version this node serves
	// (serve.CodeVersion). The handshake refuses peers reporting a
	// different version from GET /healthz.
	Version string

	// Secret is the shared cluster token authenticating forwarded peer
	// hops. The forwarding side attaches it to every peer request
	// (serve.HeaderClusterAuth) and the receiving side refuses the
	// forwarded branch — which bypasses API-key auth and tenant
	// admission, both already performed at the ingress node — unless the
	// token matches. Required whenever the peer list has more than one
	// node: without it any client could forge the forwarded header.
	Secret string

	// MaxConnsPerPeer bounds concurrent connections to one peer
	// (0 = 8). Scatters larger than the bound queue on the pool.
	MaxConnsPerPeer int

	// RetryCooldown is how long a failed peer is skipped before the next
	// forward attempt re-probes it (0 = 2s).
	RetryCooldown time.Duration

	// HandshakeTimeout bounds the /healthz version probe of a fresh or
	// recovering peer (0 = 3s). Deliberately far shorter than a forward:
	// a healthy peer answers /healthz in milliseconds, and the probing
	// caller degrades to local compute on expiry instead of stalling a
	// scatter behind a blackholed peer.
	HandshakeTimeout time.Duration

	// Logf receives peer state transitions (nil = silent). Transitions
	// are logged once per edge, not per failed request.
	Logf func(format string, args ...any)

	// now is the health clock; tests override it.
	now func() time.Time
}

// peerState tracks one remote peer's availability. The mutex guards
// state words only — never network I/O — so Status() and concurrent
// forwards observe it without queueing behind a slow peer: the /healthz
// probe of a fresh peer runs outside the lock, and concurrent forwards
// wait on the probe channel (bounded by the probe's own short timeout)
// rather than on the mutex. The up gauge is stored inside the same
// critical sections that move verified, so gauge transitions are
// ordered with state transitions.
type peerState struct {
	url string

	mu           sync.Mutex
	verified     bool          // /healthz handshake passed since the last failure
	probe        chan struct{} // non-nil while a handshake is in flight; closed when it resolves
	incompatible bool          // last handshake reported a different CodeVersion
	downUntil    time.Time     // zero = available

	up *obs.Counter // gauge: 1 when verified and reachable
}

// Cluster is the immutable peer topology plus mutable per-peer health.
// Safe for concurrent use.
type Cluster struct {
	cfg    Config
	self   string
	peers  []string // sorted, deduplicated, includes self
	remote map[string]*peerState
	client *http.Client

	forwards          *obs.Counter
	forwardErrors     *obs.Counter
	handshakes        *obs.Counter
	handshakeFailures *obs.Counter
}

// New validates and builds a Cluster. Peer URLs are normalised only by
// trimming trailing slashes — the peer list is configuration, and two
// spellings of one node are a configuration error surfaced here (as a
// duplicate) rather than a split ownership space discovered in production.
func New(cfg Config) (*Cluster, error) {
	if cfg.Version == "" {
		return nil, fmt.Errorf("cluster: config needs a code version")
	}
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: config needs at least one peer")
	}
	if cfg.MaxConnsPerPeer <= 0 {
		cfg.MaxConnsPerPeer = 8
	}
	if cfg.RetryCooldown <= 0 {
		cfg.RetryCooldown = 2 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 3 * time.Second
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	self := strings.TrimSuffix(cfg.Self, "/")
	seen := map[string]bool{}
	var peers []string
	for _, p := range cfg.Peers {
		p = strings.TrimSuffix(p, "/")
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer URL")
		}
		if !strings.HasPrefix(p, "http://") && !strings.HasPrefix(p, "https://") {
			return nil, fmt.Errorf("cluster: peer %q is not an http(s) URL", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
		peers = append(peers, p)
	}
	if !seen[self] {
		return nil, fmt.Errorf("cluster: self %q not in peer list %v", self, peers)
	}
	if len(peers) > 1 && cfg.Secret == "" {
		return nil, fmt.Errorf("cluster: config needs a shared secret (forwarded peer hops bypass per-request auth and must be authenticated)")
	}
	sort.Strings(peers)

	c := &Cluster{
		cfg:    cfg,
		self:   self,
		peers:  peers,
		remote: map[string]*peerState{},
		client: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     cfg.MaxConnsPerPeer,
				MaxIdleConnsPerHost: cfg.MaxConnsPerPeer,
			},
		},
		forwards:          &obs.Counter{},
		forwardErrors:     &obs.Counter{},
		handshakes:        &obs.Counter{},
		handshakeFailures: &obs.Counter{},
	}
	for _, p := range peers {
		if p != self {
			c.remote[p] = &peerState{url: p, up: &obs.Counter{}}
		}
	}
	return c, nil
}

// Bind re-homes the cluster metrics (forward counters, per-peer up
// gauges) into reg. Call once, before serving.
func (c *Cluster) Bind(reg *obs.Registry) {
	c.forwards = reg.Counter(MetricForwards)
	c.forwardErrors = reg.Counter(MetricForwardErrors)
	c.handshakes = reg.Counter(MetricHandshakes)
	c.handshakeFailures = reg.Counter(MetricHandshakeFailures)
	for _, ps := range c.remote {
		ps.up = reg.Counter(PeerUpMetricName(ps.url))
	}
}

// Self returns this node's normalised URL.
func (c *Cluster) Self() string { return c.self }

// Peers returns the sorted peer list (including self).
func (c *Cluster) Peers() []string {
	out := make([]string, len(c.peers))
	copy(out, c.peers)
	return out
}

// Version returns the code version the cluster was configured with.
func (c *Cluster) Version() string { return c.cfg.Version }

// Secret returns the shared cluster token forwarded hops carry.
func (c *Cluster) Secret() string { return c.cfg.Secret }

// Enabled reports whether there is anyone to forward to.
func (c *Cluster) Enabled() bool { return len(c.peers) > 1 }

// Owner returns the rendezvous owner of key among all peers (possibly
// self).
func (c *Cluster) Owner(key string) string { return OwnerOf(c.peers, key) }

// PeerStatus is one remote peer's health snapshot.
type PeerStatus struct {
	State string `json:"state"` // "up", "down", "unverified", "incompatible"
}

// Status snapshots every remote peer's health for operators (/readyz).
func (c *Cluster) Status() map[string]PeerStatus {
	now := c.cfg.now()
	out := make(map[string]PeerStatus, len(c.remote))
	for url, ps := range c.remote {
		ps.mu.Lock()
		st := "up"
		switch {
		case ps.incompatible:
			st = "incompatible"
		case ps.downUntil.After(now):
			st = "down"
		case !ps.verified:
			st = "unverified"
		}
		ps.mu.Unlock()
		out[url] = PeerStatus{State: st}
	}
	return out
}

func (c *Cluster) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// markDown records a failure edge: the peer is skipped until the cooldown
// elapses and must re-handshake when it comes back. incompatible is true
// when the failure was a CodeVersion mismatch (Status reports the peer
// as such instead of merely down).
func (ps *peerState) markDown(c *Cluster, reason string, incompatible bool) {
	ps.mu.Lock()
	wasUp := ps.verified
	ps.verified = false
	ps.incompatible = incompatible
	ps.downUntil = c.cfg.now().Add(c.cfg.RetryCooldown)
	if ps.probe != nil {
		// Release every forward waiting on the probe; they re-check state
		// and fail fast with ErrPeerDown.
		close(ps.probe)
		ps.probe = nil
	}
	ps.up.Store(0)
	ps.mu.Unlock()
	if wasUp {
		c.logf("cluster: peer %s down: %s", ps.url, reason)
	}
}

// healthzProbe is the part of an informd /healthz body the handshake
// reads.
type healthzProbe struct {
	CodeVersion string `json:"code_version"`
}

// handshake verifies the peer serves the same CodeVersion. Called
// WITHOUT ps.mu held — it performs network I/O, bounded by its own
// HandshakeTimeout rather than the caller's forward budget — and does
// not touch peer state: the caller translates the verdict into a state
// transition under the lock.
func (c *Cluster) handshake(ctx context.Context, ps *peerState) error {
	c.handshakes.Inc()
	ctx, cancel := context.WithTimeout(ctx, c.cfg.HandshakeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ps.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.handshakeFailures.Inc()
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		c.handshakeFailures.Inc()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		c.handshakeFailures.Inc()
		return fmt.Errorf("cluster: peer %s healthz status %d", ps.url, resp.StatusCode)
	}
	var hz healthzProbe
	if err := json.Unmarshal(body, &hz); err != nil {
		c.handshakeFailures.Inc()
		return fmt.Errorf("cluster: peer %s healthz: %w", ps.url, err)
	}
	if hz.CodeVersion != c.cfg.Version {
		c.handshakeFailures.Inc()
		c.logf("cluster: peer %s serves code version %q, want %q; refusing its results",
			ps.url, hz.CodeVersion, c.cfg.Version)
		return fmt.Errorf("%w: peer %s serves %q, want %q",
			ErrVersionMismatch, ps.url, hz.CodeVersion, c.cfg.Version)
	}
	return nil
}

// ensureVerified makes sure the peer has a passing version handshake
// before a forward touches it: a peer inside its failure cooldown fails
// fast with ErrPeerDown; a fresh (or recovering) peer is probed by
// exactly one caller while concurrent forwards wait on the probe channel
// — never on the mutex, and bounded by the probe's HandshakeTimeout plus
// their own ctx — then re-check the outcome.
func (c *Cluster) ensureVerified(ctx context.Context, ps *peerState) error {
	for {
		ps.mu.Lock()
		if ps.downUntil.After(c.cfg.now()) {
			ps.mu.Unlock()
			return fmt.Errorf("%w: %s (retry cooldown)", ErrPeerDown, ps.url)
		}
		if ps.verified {
			ps.mu.Unlock()
			return nil
		}
		if ps.probe == nil {
			// Become the prober: pay the /healthz round trip outside the
			// lock, then publish the verdict.
			probe := make(chan struct{})
			ps.probe = probe
			ps.mu.Unlock()
			if err := c.handshake(ctx, ps); err != nil {
				// markDown closes the probe channel, releasing the waiters
				// into their own down-cooldown fast path.
				ps.markDown(c, err.Error(), errors.Is(err, ErrVersionMismatch))
				return err
			}
			ps.mu.Lock()
			ps.verified = true
			ps.incompatible = false
			if ps.probe == probe {
				close(probe)
				ps.probe = nil
			}
			ps.up.Store(1)
			ps.mu.Unlock()
			c.logf("cluster: peer %s up (code version verified)", ps.url)
			return nil
		}
		probe := ps.probe
		ps.mu.Unlock()
		select {
		case <-probe:
			// Probe resolved either way; loop to re-read the state.
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Forward POSTs body to peer+path and returns the response status and
// body. It owns peer health: a peer inside its failure cooldown fails
// fast with ErrPeerDown; a fresh (or recovering) peer is version-checked
// against /healthz first (one probe, shared by concurrent forwards); any
// transport failure marks the peer down, except one that ctx's
// cancellation caused: a caller giving up says nothing about the peer.
// Non-2xx statuses are returned to the caller, not treated as peer
// failures — the peer is alive and said something meaningful.
func (c *Cluster) Forward(ctx context.Context, peer, path string, body []byte, header http.Header) (int, []byte, error) {
	ps := c.remote[peer]
	if ps == nil {
		return 0, nil, fmt.Errorf("cluster: %q is not a remote peer", peer)
	}
	c.forwards.Inc()

	if err := c.ensureVerified(ctx, ps); err != nil {
		c.forwardErrors.Inc()
		return 0, nil, err
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		c.forwardErrors.Inc()
		return 0, nil, err
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.forwardFailed(ctx, ps, err)
		return 0, nil, err
	}
	defer resp.Body.Close()
	// A body of declared length is read into a buffer of exactly that
	// size, not one grown in steps: the serving layer keeps a forwarded
	// result as a slice of it, for as long as its cache holds the result.
	var respBody []byte
	if n := resp.ContentLength; n > 0 && n <= 1<<20 {
		respBody = make([]byte, n)
		_, err = io.ReadFull(resp.Body, respBody)
	} else {
		respBody, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		c.forwardFailed(ctx, ps, err)
		return 0, nil, err
	}
	return resp.StatusCode, respBody, nil
}

// forwardFailed counts a failed POST and marks the peer down unless the
// caller cancelled it; a timeout still marks the peer down.
func (c *Cluster) forwardFailed(ctx context.Context, ps *peerState, err error) {
	c.forwardErrors.Inc()
	if !errors.Is(ctx.Err(), context.Canceled) {
		ps.markDown(c, err.Error(), false)
	}
}
