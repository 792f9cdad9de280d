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
// At the ingress a forward is an ordinary flight (serve.go) whose owner
// is set: concurrent identical client requests join it in the one flight
// table as they would join a computation (a hop from a peer never does:
// submit's loop guard), and it is cancelled when its last waiter leaves. A successful owner answer is published with the owner's
// bytes, not decoded (sliceReply), so it warms the ingress RAM cache and
// repeats are served with zero hops. The durable store stays owner-only:
// exactly one node is responsible for a fingerprint's durability, and a
// warm restart of any node re-fills the rest of the cluster through
// normal forwarding.
//
// Failure policy (DESIGN.md §15): a peer that cannot be reached, is on a
// different code version, or answers anything other than a well-formed
// 200 costs the ingress node a local computation, never an error and
// never a wrong answer — results are deterministic, so computing a
// non-owned fingerprint locally is always correct, merely duplicated
// work. The same flight goes onto the local queue, so its waiters,
// already admitted, are answered even if this node began draining
// meanwhile. Only a *simulation* error from the owner (invalid, budget,
// livelock — deterministic verdicts that would reproduce locally) is
// authoritative; owner-side cancellations are transient and fall back.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"informing/internal/cluster"
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

// forward drives one forwarded flight: publish the owner's answer, or,
// when the owner gives none, put the same flight onto the local queue.
// A flight whose every waiter left has already been torn down (leave) and
// ends here; at shutdown it fails like any queued flight.
func (s *Server) forward(f *flight) {
	out, cached, ok := s.forwardToOwner(f)
	switch {
	case ok:
		s.publish(f, out, cached)
	case f.ctx.Err() == nil:
		s.met.ForwardFallbacks.Inc()
		s.met.Misses.Inc()
		s.enqueueBlocking(f.ctx, f)
	case s.baseCtx.Err() != nil:
		s.complete(f, outcome{err: errShutdown})
	}
}

// forwardToOwner performs f's peer hop. ok=false means "the peer did not
// give an authoritative answer" and the caller must compute locally; it
// is never an error the client sees.
func (s *Server) forwardToOwner(f *flight) (out outcome, cached, ok bool) {
	key, c, owner := f.key, f.req, f.owner
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
	hdr.Set(HeaderForwardedTenant, f.tn.name)
	hdr.Set(HeaderClusterAuth, s.cluster.Secret())

	// The hop rides the flight's context: it ends when the last waiter
	// leaves, not when any one waiter does.
	ctx, cancel := context.WithTimeout(f.ctx, s.cfg.ForwardTimeout)
	defer cancel()
	status, respBody, err := s.cluster.Forward(ctx, owner, "/v1/simulate", body, hdr)
	if err != nil {
		// ErrPeerDown is the fast-fail inside the cooldown — the edge was
		// already logged; anything else is a fresh transport failure,
		// unless every waiter left.
		if !errors.Is(err, cluster.ErrPeerDown) && f.ctx.Err() == nil {
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
	out, cached, ok = sliceReply(respBody, key)
	if !ok {
		s.cfg.Logf("serve: forward %s to %s returned an unexpected body, computing locally", key, owner)
		return outcome{}, false, false
	}
	if enc := out.enc; out.err == nil {
		out.lazy = sync.OnceValues(func() (outcome, error) { return decodeOutcome(enc) })
	}
	return out, cached, true
}

// sliceReply takes apart an owner's answer to a one-cell hop for key,
// exactly what writeSimulate writes: {"results":[{"key":"<key>","cached":
// <bool>, the result's encoding without its opening brace, ]}\n. The
// encoding is rebuilt in place, that comma turned into a brace, and
// checked with json.Valid alone (DESIGN.md §12). An error cell decodes
// its WireError, a verdict unless canceled. ok=false: any other shape.
func sliceReply(body []byte, key string) (out outcome, cached, ok bool) {
	const head, mid, tail = `{"results":[{"key":"`, `","cached":`, "]}\n"
	i := len(head) + len(key) + len(mid)
	if !hasPrefix(body, head) || !hasPrefix(body[len(head):], key) || !hasPrefix(body[i-len(mid):], mid) ||
		!hasPrefix(body[len(body)-len(tail):], tail) {
		return outcome{}, false, false
	}
	if cached = hasPrefix(body[i:], "true,"); !cached && !hasPrefix(body[i:], "false,") {
		return outcome{}, false, false
	}
	enc := body[i+len(strconv.FormatBool(cached)) : len(body)-len(tail)]
	enc[0] = '{'
	if hasPrefix(enc, `{"error":`) {
		var ec struct{ Error *WireError }
		ok = json.Unmarshal(enc, &ec) == nil && ec.Error != nil && ec.Error.Code != CodeCanceled
		return outcome{err: ec.Error}, false, ok
	}
	for _, field := range [...]string{`{"run":{`, `{"multi":{`, `{"replay":{`} {
		if hasPrefix(enc, field) { // one object, then the result's last brace
			v := enc[len(field)-1 : len(enc)-1]
			return outcome{enc: enc}, cached, hasPrefix(enc[len(enc)-2:], "}}") && json.Valid(v)
		}
	}
	return outcome{}, false, false
}

// hasPrefix is bytes.HasPrefix against a string, without converting it.
func hasPrefix(b []byte, s string) bool { return len(b) >= len(s) && string(b[:len(s)]) == s }
