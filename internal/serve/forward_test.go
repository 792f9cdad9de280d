package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"informing/internal/cluster"
	"informing/internal/stats"
)

// ownerReply is what a same-version owner writes for a one-cell hop: the
// /v1/simulate body of cr.
func ownerReply(cr CellResult) []byte {
	rec := httptest.NewRecorder()
	writeSimulate(rec, []CellResult{cr})
	return rec.Body.Bytes()
}

// TestForwardBadOwnerReply puts an ingress in front of a fake owner that
// passes the version handshake and the cluster-secret check but answers
// each hop with a canned body. A reply of any shape but the one
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
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			writeJSON(w, http.StatusOK, map[string]string{"code_version": CodeVersion})
			return
		}
		if r.Header.Get(HeaderClusterAuth) != testClusterSecret {
			w.WriteHeader(http.StatusForbidden)
			return
		}
		mu.Lock()
		defer mu.Unlock()
		_, _ = w.Write(reply(replyKey))
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
	runner := newFakeRunner(false)
	ingress.mu.Lock()
	ingress.srv = New(Config{runCell: runner.run, Cluster: cl, Logf: t.Logf})
	ingress.mu.Unlock()
	t.Cleanup(ingress.srv.Close)
	s := ingress.server()
	_, single := newTestServer(t, Config{runCell: newFakeRunner(false).run})

	maxInsts := uint64(1000)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh cell per case, owned by the fake: no case is served
			// from what an earlier one left in the ingress LRU.
			var c Request
			for {
				maxInsts++
				c = fakeCell(maxInsts)
				canon, err := Canonicalize(c, 0)
				if err != nil {
					t.Fatal(err)
				}
				if key := Fingerprint(canon); cluster.OwnerOf(peers, key) == owner.URL {
					mu.Lock()
					reply, replyKey = tc.reply, key
					mu.Unlock()
					break
				}
			}
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
