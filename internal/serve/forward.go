package serve

// Cluster forwarding: the ingress side of distributed informd.
//
// Every canonical request fingerprint has exactly one rendezvous owner
// node (internal/cluster). A node receiving a request it does not own
// forwards it to the owner as a one-cell POST /v1/simulate with the
// X-Informd-Forwarded header set — the owner computes (or serves its
// cache/store) under ITS single-flight, which is what makes coalescing
// cluster-wide: every node routes an identical fingerprint to the same
// owner, so at most one simulation of it runs anywhere in the cluster.
//
// Concurrent identical requests at the ingress share one forward (the
// remotes map, single-flight for the network hop), and a successful
// remote outcome warms the ingress RAM cache so repeats are served with
// zero hops. The durable store stays owner-only: exactly one node is
// responsible for a fingerprint's durability, and a warm restart of any
// node re-fills the rest of the cluster through normal forwarding.
//
// Failure policy (DESIGN.md §15): a peer that cannot be reached, is on a
// different code version, or answers anything other than a well-formed
// 200 costs the ingress node a local computation, never an error and
// never a wrong answer — results are deterministic, so computing a
// non-owned fingerprint locally is always correct, merely duplicated
// work. Only a *simulation* error from the owner (invalid, budget,
// livelock — deterministic verdicts that would reproduce locally) is
// authoritative; owner-side cancellations are transient and fall back.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"informing/internal/cluster"
	"informing/internal/govern"
)

// Cluster-hop headers. The forwarded branch bypasses API-key auth and
// tenant admission (both already performed at the ingress node), so it
// is itself authenticated: every hop carries the shared cluster secret
// and the receiver refuses the branch without it — a client forging the
// forwarded headers gets 403, not a free pass (resolveTenant).
const (
	// HeaderForwarded marks a request that already took its one allowed
	// peer hop (the loop guard). Its value is the forwarding node's
	// CodeVersion, double-checking the handshake per request: the
	// receiver answers 409 on mismatch.
	HeaderForwarded = "X-Informd-Forwarded"
	// HeaderForwardedTenant carries the tenant resolved (and admitted)
	// at the ingress node, by name, so the owner node attributes the
	// work without re-charging the tenant's token bucket.
	HeaderForwardedTenant = "X-Informd-Tenant"
	// HeaderClusterAuth carries the shared cluster secret
	// (cluster.Config.Secret) proving the hop originates from a cluster
	// member. Compared in constant time; required before HeaderForwarded
	// is honored.
	HeaderClusterAuth = "X-Informd-Cluster-Auth"
	// HeaderRawTrace marks a forwarded trace cell whose body is the raw
	// hop form (appendTraceHop): the trace follows the head unescaped.
	// The receiver honors it only on a forwarded hop that passed the
	// cluster-secret check; a client body is always the cells codec.
	HeaderRawTrace = "X-Informd-Raw-Trace"
)

// remoteFlight is one in-flight forward to an owner peer, shared by every
// ingress request that asked for the same fingerprint while it ran. out,
// cached and retry are written before done is closed.
type remoteFlight struct {
	done   chan struct{}
	out    outcome
	cached bool // the owner (or the ingress fallback path) served it from cache
	// retry: the flight ended in this node's own drain/shutdown rejection
	// rather than an authoritative answer. Coalesced waiters from other
	// requests were admitted in their own right, so they re-run the local
	// path themselves (await) instead of inheriting the first caller's
	// race with the lifecycle.
	retry bool
}

// submitRemote coalesces onto an existing forward for key or starts a
// fresh one. Returns nil while draining — the caller's local path owns
// that rejection.
func (s *Server) submitRemote(key string, c Request, tn *tenant, owner string) *remoteFlight {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	if rf, ok := s.remotes[key]; ok {
		s.mu.Unlock()
		s.met.ForwardCoalesced.Inc()
		return rf
	}
	rf := &remoteFlight{done: make(chan struct{})}
	s.remotes[key] = rf
	s.mu.Unlock()
	s.met.Forwarded.Inc()
	go s.runForward(rf, key, c, tn, owner)
	return rf
}

// runForward drives one forward to completion: try the owner, fall back
// to local compute on any peer-level failure, publish, and retire the
// flight from the coalescing index.
func (s *Server) runForward(rf *remoteFlight, key string, c Request, tn *tenant, owner string) {
	out, cached, ok := s.forwardToOwner(key, c, tn, owner)
	if !ok {
		s.met.ForwardFallbacks.Inc()
		out, cached = s.localFallback(key, c, tn)
	}
	s.mu.Lock()
	if s.remotes[key] == rf {
		delete(s.remotes, key)
	}
	s.mu.Unlock()
	rf.out, rf.cached = out, cached
	rf.retry = !ok && lifecycleReject(out.err)
	close(rf.done)
}

// lifecycleReject reports whether err is a this-node drain/shutdown
// rejection (a race with the server lifecycle, different per waiter)
// rather than a deterministic simulation verdict that any waiter would
// reproduce.
func lifecycleReject(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, govern.ErrCanceled) {
		return true
	}
	var we *WireError
	return errors.As(err, &we) && we.Code == CodeCanceled
}

// forwardToOwner performs the peer hop. ok=false means "the peer did not
// give an authoritative answer" and the caller must compute locally; it
// is never an error the client sees.
func (s *Server) forwardToOwner(key string, c Request, tn *tenant, owner string) (out outcome, cached, ok bool) {
	hdr := http.Header{}
	var body []byte
	if c.Kind == KindTrace {
		// The trace goes out as the ingress decoded it: no byte of it is
		// escaped here or unescaped at the owner.
		body = appendTraceHop(make([]byte, 0, 256+len(c.Trace)), c)
		hdr.Set(HeaderRawTrace, "1")
	} else {
		// Sized for one pass: escaping grows a source by about a fifth.
		body = appendCells(make([]byte, 0, 256+len(c.Source)*5/4), []Request{c})
		hdr.Set("Content-Type", "application/json")
	}
	hdr.Set(HeaderForwarded, CodeVersion)
	hdr.Set(HeaderForwardedTenant, tn.name)
	hdr.Set(HeaderClusterAuth, s.cluster.Secret())

	// The forward rides the server context, not any single waiter's:
	// coalesced waiters come and go, and a completed forward warms the
	// ingress cache regardless.
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.ForwardTimeout)
	defer cancel()
	status, respBody, err := s.cluster.Forward(ctx, owner, "/v1/simulate", body, hdr)
	if err != nil {
		// ErrPeerDown is the fast-fail inside the cooldown — the edge was
		// already logged; anything else is a fresh transport failure.
		if !errors.Is(err, cluster.ErrPeerDown) {
			s.cfg.Logf("serve: forward %s to %s failed, computing locally: %v", key, owner, err)
		}
		return outcome{}, false, false
	}
	if status != http.StatusOK {
		// Owner overloaded (429), draining (503), version conflict (409),
		// or anything else: alive but not answering this cell. Local
		// compute absorbs it.
		s.cfg.Logf("serve: forward %s to %s answered %d, computing locally", key, owner, status)
		return outcome{}, false, false
	}
	var sr SimulateResponse
	if err := json.Unmarshal(respBody, &sr); err != nil || len(sr.Results) != 1 {
		s.cfg.Logf("serve: forward %s to %s returned an undecodable body, computing locally", key, owner)
		return outcome{}, false, false
	}
	cr := sr.Results[0]
	if cr.Error != nil {
		if cr.Error.Code == CodeCanceled {
			// Transient owner-side cancellation (e.g. the owner began
			// draining mid-batch) — not a verdict about the simulation.
			return outcome{}, false, false
		}
		// Deterministic simulation verdict (invalid, budget, livelock):
		// recomputing locally would reproduce it. Authoritative.
		return outcome{err: cr.Error}, false, true
	}
	if exactlyOne(cr.Run != nil, cr.Multi != nil, cr.Replay != nil) != 1 {
		return outcome{}, false, false
	}
	out = outcome{run: cr.Run, multiRes: cr.Multi, replay: cr.Replay}
	// Warm the ingress LRU: repeats at this node are then zero-hop. The
	// durable store is NOT written — durability is the owner's job.
	s.cache.add(key, out)
	return out, cr.Cached, true
}

// localFallback computes a non-owned fingerprint on this node after its
// owner failed to answer: a blocking submit onto the local queue (the
// forward already absorbed the admission decision at ingress), bounded by
// server shutdown. Identical concurrent fallbacks coalesce on the local
// single-flight like any other cells.
func (s *Server) localFallback(key string, c Request, tn *tenant) (outcome, bool) {
	if out, ok := s.cache.get(key); ok {
		return out, true
	}
	t, we := s.submitLocal(s.baseCtx, key, c, tn, true)
	if we != nil {
		return outcome{err: we}, false
	}
	if t.cached != nil {
		return *t.cached, true
	}
	select {
	case <-t.f.done:
		return t.f.out, false
	case <-s.baseCtx.Done():
		s.leave(t.f)
		return outcome{err: errShutdown}, false
	}
}
