package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"informing/internal/cluster"
	"informing/internal/obs"
	"informing/internal/stats"
)

// ownerReply is what a same-version owner writes for a one-cell hop: the
// /v1/simulate body of cr.
func ownerReply(cr CellResult) []byte {
	rec := httptest.NewRecorder()
	writeSimulate(rec, []CellResult{cr})
	return rec.Body.Bytes()
}

// fakeOwnerCluster puts an ingress, simulating with runner, in front of a
// fake owner that passes the version handshake and the cluster-secret
// check and answers each hop with hop. It returns the ingress, the
// owner's URL and the two-node peer list.
func fakeOwnerCluster(t *testing.T, runner *fakeRunner, hop http.HandlerFunc) (*clusterNode, string, []string) {
	t.Helper()
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			writeJSON(w, http.StatusOK, map[string]string{"code_version": CodeVersion})
			return
		}
		if r.Header.Get(HeaderClusterAuth) != testClusterSecret {
			w.WriteHeader(http.StatusForbidden)
			return
		}
		hop(w, r)
	}))
	t.Cleanup(owner.Close)
	ingress := &clusterNode{}
	ingress.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ingress.server().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ingress.ts.Close)
	peers := []string{ingress.ts.URL, owner.URL}
	cl, err := cluster.New(cluster.Config{Self: ingress.ts.URL, Peers: peers, Version: CodeVersion,
		Secret: testClusterSecret, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ingress.mu.Lock()
	ingress.srv = New(Config{runCell: runner.run, Cluster: cl, Logf: t.Logf})
	ingress.mu.Unlock()
	t.Cleanup(ingress.srv.Close)
	return ingress, owner.URL, peers
}

// ownedCell returns the first cell past *maxInsts that peers route to
// owner, and its key, leaving *maxInsts at that cell's budget.
func ownedCell(t *testing.T, peers []string, owner string, maxInsts *uint64) (Request, string) {
	t.Helper()
	for {
		*maxInsts++
		c := fakeCell(*maxInsts)
		canon, err := Canonicalize(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if key := Fingerprint(canon); cluster.OwnerOf(peers, key) == owner {
			return c, key
		}
	}
}

// TestForwardBadOwnerReply puts an ingress in front of a fake owner
// (fakeOwnerCluster) that answers each hop with a canned body. A reply of any shape but the one
// writeSimulate writes for the expected key must cost the ingress a
// local computation: serve_forward_fallbacks rises by one and the client
// gets, byte for byte, what a single node answers. An owner's error cell
// is authoritative unless it is a cancellation, and a well-formed reply
// is served as the owner's bytes.
func TestForwardBadOwnerReply(t *testing.T) {
	var ownerRun stats.Run
	ownerRun.Cycles = 7777 // not what the fake runner computes for any cell
	ownerEnc := encoded(outcome{run: &ownerRun}).enc
	good := func(key string) []byte { return ownerReply(CellResult{Key: key, enc: ownerEnc}) }
	errReply := func(code string) func(string) []byte {
		return func(key string) []byte {
			return ownerReply(CellResult{Key: key, Error: &WireError{Code: code, Message: "from the owner"}})
		}
	}
	const (
		fallback = iota
		ownerAnswer
		ownerError
	)
	cases := []struct {
		name  string
		reply func(key string) []byte
		want  int
	}{
		{"well formed", good, ownerAnswer},
		{"truncated", func(k string) []byte { b := good(k); return b[:len(b)-10] }, fallback},
		{"wrong key", func(k string) []byte { return good(strings.Repeat("0", len(k))) }, fallback},
		{"leading space", func(k string) []byte { return append([]byte(" "), good(k)...) }, fallback},
		{"cached 1", func(k string) []byte {
			return bytes.Replace(good(k), []byte(`"cached":false`), []byte(`"cached":1`), 1)
		}, fallback},
		{"trailing field in the cell", func(k string) []byte {
			return bytes.Replace(good(k), []byte("}]}\n"), []byte(`,"zz":1}]}`+"\n"), 1)
		}, fallback},
		{"trailing field after the results", func(k string) []byte {
			return bytes.Replace(good(k), []byte("]}\n"), []byte(`],"zz":1}`+"\n"), 1)
		}, fallback},
		{"invalid JSON object", func(k string) []byte {
			return []byte(`{"results":[{"key":"` + k + `","cached":false,"run":{"Cycles":}}]}` + "\n")
		}, fallback},
		{"canceled error cell", errReply(CodeCanceled), fallback},
		{"invalid error cell", errReply(CodeInvalid), ownerError},
	}

	var mu sync.Mutex
	var reply func(key string) []byte
	var replyKey string
	ingress, owner, peers := fakeOwnerCluster(t, newFakeRunner(false), func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		_, _ = w.Write(reply(replyKey))
	})
	s := ingress.server()
	_, single := newTestServer(t, Config{runCell: newFakeRunner(false).run})

	maxInsts := uint64(1000)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh cell per case, owned by the fake: no case is served
			// from what an earlier one left in the ingress LRU.
			c, key := ownedCell(t, peers, owner, &maxInsts)
			mu.Lock()
			reply, replyKey = tc.reply, key
			mu.Unlock()
			req := SimulateRequest{Cells: []Request{c}}
			fallbacks := s.met.ForwardFallbacks.Load()
			resp, body := postJSON(t, ingress.ts.URL+"/v1/simulate", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			wantFallbacks := fallbacks
			var want []byte
			switch tc.want {
			case fallback:
				wantFallbacks++
				_, want = postJSON(t, single.URL+"/v1/simulate", req)
			case ownerAnswer:
				want = good(replyKey)
			case ownerError:
				want = errReply(CodeInvalid)(replyKey)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("client got\n%s\nwant\n%s", body, want)
			}
			if got := s.met.ForwardFallbacks.Load(); got != wantFallbacks {
				t.Errorf("serve_forward_fallbacks = %d, want %d", got, wantFallbacks)
			}
		})
	}
}

// waitForCount polls c until it reads want, for at most 5 s.
func waitForCount(t *testing.T, name string, c *obs.Counter, want uint64) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for c.Load() != want {
		select {
		case <-deadline:
			t.Fatalf("%s = %d, never reached %d", name, c.Load(), want)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestForwardFallbackDuringDrain: a forward whose owner gives no answer
// falls back to this node even when it began draining meanwhile. Two
// requests coalesce on a hop the fake owner holds, the ingress drains,
// then the owner answers 503: both requests were admitted before the
// drain, so both get, byte for byte, what a single node answers, from one
// local computation.
func TestForwardFallbackDuringDrain(t *testing.T) {
	arrived, answer := make(chan struct{}, 1), make(chan struct{})
	runner := newFakeRunner(false)
	ingress, owner, peers := fakeOwnerCluster(t, runner, func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		select {
		case <-answer:
			writeError(w, http.StatusServiceUnavailable, &WireError{Code: CodeCanceled, Message: "server draining"})
		case <-r.Context().Done():
		}
	})
	s := ingress.server()
	_, single := newTestServer(t, Config{runCell: newFakeRunner(false).run})
	maxInsts := uint64(70_000)
	c, _ := ownedCell(t, peers, owner, &maxInsts)
	req := SimulateRequest{Cells: []Request{c}}

	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make(chan reply, 2)
	post := func() {
		resp, body, err := tryPostJSON(ingress.ts.URL+"/v1/simulate", req)
		r := reply{body: body, err: err}
		if resp != nil {
			r.status = resp.StatusCode
		}
		replies <- r
	}
	go post()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the hop never reached the owner")
	}
	go post()
	waitForCount(t, "serve_forward_coalesced", s.met.ForwardCoalesced, 1)
	s.Drain()
	close(answer)

	_, want := postJSON(t, single.URL+"/v1/simulate", req)
	for range 2 {
		r := <-replies
		if r.err != nil || r.status != http.StatusOK || !bytes.Equal(r.body, want) {
			t.Errorf("client got status %d, err %v:\n%s\nwant\n%s", r.status, r.err, r.body, want)
		}
	}
	if got := runner.count(mustCanon(t, c)); got != 1 {
		t.Errorf("ingress computed the cell %d times, want 1", got)
	}
	if got := s.met.ForwardFallbacks.Load(); got != 1 {
		t.Errorf("serve_forward_fallbacks = %d, want 1", got)
	}
}

// TestForwardCanceledWithLastWaiter: a forward counts in serve_inflight
// and lives only as long as a request waits for it. When its only client
// disconnects mid-hop the owner sees the hop end, nothing is computed on
// the ingress, and serve_inflight returns to 0.
func TestForwardCanceledWithLastWaiter(t *testing.T) {
	arrived, hopEnded := make(chan struct{}, 1), make(chan struct{})
	runner := newFakeRunner(false)
	ingress, owner, peers := fakeOwnerCluster(t, runner, func(_ http.ResponseWriter, r *http.Request) {
		// A handler that has read its body learns of a closed connection.
		_, _ = io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		<-r.Context().Done()
		close(hopEnded)
	})
	s := ingress.server()
	maxInsts := uint64(80_000)
	c, _ := ownedCell(t, peers, owner, &maxInsts)
	body, err := json.Marshal(SimulateRequest{Cells: []Request{c}})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ingress.ts.URL+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the hop never reached the owner")
	}
	if got := s.met.Inflight.Load(); got != 1 {
		t.Errorf("serve_inflight = %d during the hop, want 1", got)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Error("the canceled client got a response")
	}
	select {
	case <-hopEnded:
	case <-time.After(5 * time.Second):
		t.Fatal("the hop outlived its last waiter")
	}
	waitForCount(t, "serve_inflight", s.met.Inflight, 0)
	select {
	case <-runner.started:
		t.Error("the ingress computed a cell nobody waits for")
	case <-time.After(100 * time.Millisecond):
	}
	if got := s.met.ForwardFallbacks.Load(); got != 0 {
		t.Errorf("serve_forward_fallbacks = %d, want 0", got)
	}
}

// TestForwardedFieldsDecodeOnce: a forwarded result enters the ingress
// LRU as the owner's bytes alone, and readers that need its fields share
// one decode. Concurrent readers of the entry all get the same decoded
// run, equal to the one the owner computed.
func TestForwardedFieldsDecodeOnce(t *testing.T) {
	runner := newFakeRunner(false)
	nodes := newTestClusterNodes(t, 2, func(int) Config { return Config{runCell: runner.run} })
	c := fakeCell(7)
	ingress := nodes[1-ownerIndex(t, nodes, c)]
	_, body := postJSON(t, ingress.ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{c}})
	want := checkCompactBody(t, body).Results[0].Run
	canon, err := Canonicalize(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	key, s := Fingerprint(canon), ingress.server()
	if out, ok := s.cache.get(key); !ok || out.run != nil || out.lazy == nil {
		t.Fatalf("ingress LRU holds %+v (ok %t), want the owner's bytes alone", out, ok)
	}
	runs := make([]*stats.Run, 8)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, _ := s.cache.get(key)
			runs[i] = cellResult(key, out, true).decoded().Run
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if r != runs[0] || !reflect.DeepEqual(r, want) {
			t.Errorf("reader %d decoded %p %+v; want the one shared run %p equal to %+v", i, r, r, runs[0], want)
		}
	}
}

// TestSliceReplyAllocations pins the slicer's allocations on one run
// reply: the result's encoding is made in place, and json.Valid's
// scanner comes from a pool.
func TestSliceReplyAllocations(t *testing.T) {
	var run stats.Run
	run.Cycles = 1
	key := "0123456789abcdef0123456789abcdef"
	reply := ownerReply(CellResult{Key: key, enc: encoded(outcome{run: &run}).enc})
	buf := make([]byte, len(reply))
	got := testing.AllocsPerRun(100, func() {
		copy(buf, reply) // the slicer overwrites one byte of its input
		if _, _, ok := sliceReply(buf, key); !ok {
			t.Fatal("slicer refused a well-formed reply")
		}
	})
	if got > 0 && !raceEnabled {
		t.Errorf("sliceReply: %v allocations per reply, want 0", got)
	}
}

// FuzzForwardReply feeds arbitrary owner replies and expected keys to the
// slicer. It must never panic. An accepted result must be valid JSON that
// starts with its one field, and splicing it back with the same key and
// cached flag must give the reply byte for byte; an accepted error cell
// must be a verdict, never a cancellation. The seed corpus holds one real
// run, multi and replay reply, an invalid error cell, a reply with
// leading space and one keyed for another cell.
func FuzzForwardReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, reply []byte, key string) {
		out, cached, ok := sliceReply(bytes.Clone(reply), key)
		if !ok {
			return
		}
		if out.err != nil {
			var we *WireError
			if !errors.As(out.err, &we) || we.Code == CodeCanceled {
				t.Fatalf("accepted %q as error %v", reply, out.err)
			}
			return
		}
		if !json.Valid(out.enc) || !hasPrefix(out.enc, `{"run":`) &&
			!hasPrefix(out.enc, `{"multi":`) && !hasPrefix(out.enc, `{"replay":`) {
			t.Fatalf("accepted %q as result %q", reply, out.enc)
		}
		if back := ownerReply(CellResult{Key: key, Cached: cached, enc: out.enc}); !bytes.Equal(back, reply) {
			t.Fatalf("accepted %q, which splices back as %q", reply, back)
		}
	})
}
