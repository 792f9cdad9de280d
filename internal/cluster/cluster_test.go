package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"informing/internal/obs"
)

// stubPeer is a minimal informd-shaped peer: /healthz reporting a code
// version, and an echo POST endpoint counting hits.
type stubPeer struct {
	ts      *httptest.Server
	version atomic.Value // string
	posts   atomic.Int64
}

func newStubPeer(t *testing.T, version string) *stubPeer {
	t.Helper()
	p := &stubPeer{}
	p.version.Store(version)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, `{"status":"ok","code_version":%q}`, p.version.Load().(string))
	})
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, _ *http.Request) {
		p.posts.Add(1)
		fmt.Fprint(w, `{"results":[]}`)
	})
	p.ts = httptest.NewServer(mux)
	t.Cleanup(p.ts.Close)
	return p
}

// testCluster builds a 2-node cluster (self is a fake URL that is never
// dialled; peer is the stub) with an injectable clock.
func testCluster(t *testing.T, peerURL, version string) (*Cluster, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c, err := New(Config{
		Self:          "http://self.invalid:1",
		Peers:         []string{"http://self.invalid:1", peerURL},
		Version:       version,
		Secret:        "test-secret",
		RetryCooldown: 2 * time.Second,
		now:           clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(obs.NewRegistry())
	return c, clk
}

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestNewValidates(t *testing.T) {
	cases := []Config{
		{Version: "v", Self: "http://a:1", Peers: nil},                                                 // no peers
		{Version: "v", Self: "http://a:1", Peers: []string{"http://b:1"}},                              // self missing
		{Version: "v", Self: "http://a:1", Peers: []string{"http://a:1", "http://a:1"}, Secret: "s"},   // duplicate
		{Version: "v", Self: "http://a:1", Peers: []string{"http://a:1", "ftp://b:1"}, Secret: "s"},    // bad scheme
		{Version: "", Self: "http://a:1", Peers: []string{"http://a:1"}},                               // no version
		{Version: "v", Self: "http://a:1/", Peers: []string{"http://a:1", "http://a:1/"}, Secret: "s"}, // dup after trim
		{Version: "v", Self: "http://a:1", Peers: []string{"http://a:1", "http://b:1"}},                // multi-peer without secret
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New(%+v) accepted invalid config", i, cfg)
		}
	}
	// Trailing slashes are normalised, not a different identity.
	c, err := New(Config{Version: "v", Self: "http://a:1/", Peers: []string{"http://a:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Self() != "http://a:1" {
		t.Fatalf("self = %q, want trimmed", c.Self())
	}
}

// TestForwardHandshakeAndPost: the first forward performs the /healthz
// version handshake, then POSTs; later forwards skip the handshake.
func TestForwardHandshakeAndPost(t *testing.T) {
	peer := newStubPeer(t, "v1")
	c, _ := testCluster(t, peer.ts.URL, "v1")

	for i := 0; i < 3; i++ {
		status, body, err := c.Forward(context.Background(), peer.ts.URL, "/v1/simulate", []byte(`{}`), nil)
		if err != nil || status != 200 {
			t.Fatalf("forward %d: status=%d err=%v", i, status, err)
		}
		if string(body) != `{"results":[]}` {
			t.Fatalf("forward %d body = %s", i, body)
		}
	}
	if got := peer.posts.Load(); got != 3 {
		t.Fatalf("peer saw %d posts, want 3", got)
	}
	if got := c.handshakes.Load(); got != 1 {
		t.Fatalf("handshakes = %d, want 1 (cached after the first forward)", got)
	}
	if st := c.Status()[peer.ts.URL]; st.State != "up" {
		t.Fatalf("peer state = %q, want up", st.State)
	}
}

// TestForwardVersionMismatch: a peer on a different simulator build is
// refused — its results must never enter this node's responses — and is
// reported incompatible.
func TestForwardVersionMismatch(t *testing.T) {
	peer := newStubPeer(t, "v2")
	c, clk := testCluster(t, peer.ts.URL, "v1")

	_, _, err := c.Forward(context.Background(), peer.ts.URL, "/v1/simulate", nil, nil)
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	if got := peer.posts.Load(); got != 0 {
		t.Fatalf("mismatched peer received %d posts, want 0", got)
	}
	if st := c.Status()[peer.ts.URL]; st.State != "incompatible" {
		t.Fatalf("peer state = %q, want incompatible", st.State)
	}

	// The peer restarts on the right build: after the cooldown the next
	// forward re-handshakes and succeeds.
	peer.version.Store("v1")
	clk.Advance(3 * time.Second)
	status, _, err := c.Forward(context.Background(), peer.ts.URL, "/v1/simulate", nil, nil)
	if err != nil || status != 200 {
		t.Fatalf("recovered forward: status=%d err=%v", status, err)
	}
	if st := c.Status()[peer.ts.URL]; st.State != "up" {
		t.Fatalf("peer state after recovery = %q, want up", st.State)
	}
}

// TestForwardPeerDownCooldown: a transport failure marks the peer down;
// until the cooldown elapses forwards fail fast with ErrPeerDown (no
// network round trip), after it the peer is re-probed.
func TestForwardPeerDownCooldown(t *testing.T) {
	peer := newStubPeer(t, "v1")
	c, clk := testCluster(t, peer.ts.URL, "v1")

	// Healthy first.
	if _, _, err := c.Forward(context.Background(), peer.ts.URL, "/v1/simulate", nil, nil); err != nil {
		t.Fatal(err)
	}
	peer.ts.Close() // peer dies

	if _, _, err := c.Forward(context.Background(), peer.ts.URL, "/v1/simulate", nil, nil); err == nil {
		t.Fatal("forward to dead peer succeeded")
	}
	if st := c.Status()[peer.ts.URL]; st.State != "down" {
		t.Fatalf("peer state = %q, want down", st.State)
	}
	// Inside the cooldown: fail fast.
	if _, _, err := c.Forward(context.Background(), peer.ts.URL, "/v1/simulate", nil, nil); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown", err)
	}
	// After the cooldown: a real (failing) probe again, not ErrPeerDown.
	clk.Advance(3 * time.Second)
	if _, _, err := c.Forward(context.Background(), peer.ts.URL, "/v1/simulate", nil, nil); errors.Is(err, ErrPeerDown) {
		t.Fatalf("post-cooldown forward still failing fast: %v", err)
	}
}

// TestForwardCanceledKeepsPeerUp: a forward its caller cancels mid-POST
// fails, but the peer stays up and the next forward reaches it.
func TestForwardCanceledKeepsPeerUp(t *testing.T) {
	arrived := make(chan struct{}, 1)
	var hold atomic.Bool
	hold.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"status":"ok","code_version":"v1"}`)
	})
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		if hold.Load() {
			arrived <- struct{}{}
			<-r.Context().Done()
			return
		}
		fmt.Fprint(w, `{"results":[]}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c, _ := testCluster(t, ts.URL, "v1")

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-arrived
		cancel()
	}()
	if _, _, err := c.Forward(ctx, ts.URL, "/v1/simulate", nil, nil); err == nil {
		t.Fatal("canceled forward succeeded")
	}
	if st := c.Status()[ts.URL]; st.State != "up" {
		t.Fatalf("peer state = %q after a canceled forward, want up", st.State)
	}
	hold.Store(false)
	if status, _, err := c.Forward(context.Background(), ts.URL, "/v1/simulate", nil, nil); err != nil || status != http.StatusOK {
		t.Fatalf("forward after a canceled one: status %d, err %v", status, err)
	}
}

// TestForwardHandshakeNonBlocking: a blackholed peer must not stall the
// rest of the node. The probing forward is bounded by HandshakeTimeout
// (not the caller's much larger forward budget), exactly one probe runs
// for any number of concurrent forwards (the rest wait on the probe
// channel, never on the mutex), and Status() — the /readyz path —
// answers from state words without touching the network.
func TestForwardHandshakeNonBlocking(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(started) })
		select { // blackhole: never answer until the probe gives up
		case <-release:
		case <-r.Context().Done():
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer close(release)

	clk := &fakeClock{t: time.Unix(1000, 0)}
	c, err := New(Config{
		Self:             "http://self.invalid:1",
		Peers:            []string{"http://self.invalid:1", ts.URL},
		Version:          "v1",
		Secret:           "test-secret",
		RetryCooldown:    2 * time.Second,
		HandshakeTimeout: time.Second,
		now:              clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Bind(obs.NewRegistry())

	errc := make(chan error, 2)
	go func() {
		_, _, err := c.Forward(context.Background(), ts.URL, "/v1/simulate", nil, nil)
		errc <- err
	}()
	<-started   // the probe is now blocked inside the peer
	go func() { // a concurrent forward shares the probe, it does not start a second one
		_, _, err := c.Forward(context.Background(), ts.URL, "/v1/simulate", nil, nil)
		errc <- err
	}()

	// Status answers immediately while the probe is still in flight: a
	// readiness check never queues behind peer network I/O.
	statusc := make(chan string, 1)
	go func() { statusc <- c.Status()[ts.URL].State }()
	select {
	case st := <-statusc:
		if st != "unverified" {
			t.Errorf("mid-handshake peer state = %q, want unverified", st)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("Status() blocked behind an in-flight handshake")
	}

	// Both forwards are released by HandshakeTimeout — far below the
	// 120s forward budget — with errors, and the peer lands in its down
	// cooldown. Only one probe ever reached the peer.
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if err == nil {
				t.Fatal("blackholed handshake reported success")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("forward not bounded by HandshakeTimeout")
		}
	}
	if st := c.Status()[ts.URL]; st.State != "down" {
		t.Errorf("post-timeout peer state = %q, want down", st.State)
	}
	if got := c.handshakes.Load(); got != 1 {
		t.Errorf("handshakes = %d, want 1 (concurrent forwards share one probe)", got)
	}
}

// TestForwardUnknownPeer: only configured remote peers are valid targets.
func TestForwardUnknownPeer(t *testing.T) {
	peer := newStubPeer(t, "v1")
	c, _ := testCluster(t, peer.ts.URL, "v1")
	if _, _, err := c.Forward(context.Background(), "http://stranger:1", "/x", nil, nil); err == nil {
		t.Fatal("forward to unconfigured peer succeeded")
	}
	if _, _, err := c.Forward(context.Background(), c.Self(), "/x", nil, nil); err == nil {
		t.Fatal("forward to self succeeded")
	}
}

// TestNon200Returned: an alive peer answering 429/503 is not a peer
// failure — the status reaches the caller, which decides what to do.
func TestNon200Returned(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"code_version":"v1"}`)
	})
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c, _ := testCluster(t, ts.URL, "v1")

	status, _, err := c.Forward(context.Background(), ts.URL, "/v1/simulate", nil, nil)
	if err != nil || status != http.StatusTooManyRequests {
		t.Fatalf("status=%d err=%v, want 429/nil", status, err)
	}
	if st := c.Status()[ts.URL]; st.State != "up" {
		t.Fatalf("peer state = %q, want up (non-200 is not a transport failure)", st.State)
	}
}
