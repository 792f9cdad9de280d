package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestCacheHitAllocations pins the allocation count of one cache-hit
// request on /v1/simulate and /v1/explain: the whole request pipeline,
// from the handler entry to the encoded response, with no simulation
// (both endpoints share one cache entry). The store row pins a store hit:
// a server with a one-entry LRU alternates two cells, so every measured
// request misses the LRU and reads its result from the durable store.
// Request construction and the response writer stay outside the count.
// The bounds are the counts measured when the test was written, so a
// change that adds an allocation to the hit path fails here. Under -race
// the count is only logged: the race detector makes sync.Pool (fmt's and
// encoding/json's) drop a random share of its buffers.
func TestCacheHitAllocations(t *testing.T) {
	shared := New(Config{})
	defer shared.Close()
	cell, other := explainCell(""), explainCell("srrip")
	for _, tc := range []struct {
		name   string
		store  bool // a server of its own with a store and a one-entry LRU
		path   string
		bodies []any // measured request i sends bodies[i%len(bodies)]
		allocs float64
	}{
		{"/v1/simulate", false, "/v1/simulate", []any{SimulateRequest{Cells: []Request{cell}}}, 22},
		{"/v1/explain", false, "/v1/explain", []any{ExplainRequest{Cells: []Request{cell}}}, 25},
		{"store hit", true, "/v1/simulate",
			[]any{SimulateRequest{Cells: []Request{cell}}, SimulateRequest{Cells: []Request{other}}}, 55},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := shared
			if tc.store {
				s = New(Config{CacheEntries: 1, Store: openTestStore(t, t.TempDir(), nil)})
				defer s.Close()
			}
			h := s.Handler()
			bodies := make([][]byte, len(tc.bodies))
			for i, b := range tc.bodies {
				var err error
				if bodies[i], err = json.Marshal(b); err != nil {
					t.Fatal(err)
				}
				// The first request of each body fills the cache (computing
				// it the first time round); every measured one below is a
				// hit.
				w := &statusWriter{header: http.Header{}}
				h.ServeHTTP(w, httptest.NewRequest("POST", tc.path, bytes.NewReader(bodies[i])))
				if w.status != http.StatusOK {
					t.Fatalf("warm-up status = %d", w.status)
				}
			}
			const runs = 100
			reqs := make([]*http.Request, runs+1) // AllocsPerRun adds one warm-up call
			ws := make([]*statusWriter, runs+1)
			for i := range reqs {
				reqs[i] = httptest.NewRequest("POST", tc.path, bytes.NewReader(bodies[i%len(bodies)]))
				ws[i] = &statusWriter{header: http.Header{}}
			}
			hits, storeHits, instrs := s.met.Hits.Load(), s.met.StoreHits.Load(), s.Sim().Instrs.Load()
			i := 0
			got := testing.AllocsPerRun(runs, func() {
				h.ServeHTTP(ws[i], reqs[i])
				i++
			})
			for _, w := range ws {
				if w.status != http.StatusOK {
					t.Fatalf("status = %d", w.status)
				}
			}
			if n := s.met.Hits.Load() - hits; n != runs+1 {
				t.Fatalf("%d cache hits over %d requests", n, runs+1)
			}
			if n := s.met.StoreHits.Load() - storeHits; tc.store && n != runs+1 {
				t.Fatalf("%d store hits over %d requests", n, runs+1)
			}
			if d := s.Sim().Instrs.Load() - instrs; d != 0 {
				t.Fatalf("cache hits simulated %d instructions", d)
			}
			t.Logf("%s: %.0f allocations per hit (bound %.0f)", tc.name, got, tc.allocs)
			if got > tc.allocs && !raceEnabled {
				t.Errorf("%s: %.0f allocations per hit, bound %.0f", tc.name, got, tc.allocs)
			}
		})
	}
}

// statusWriter is a ResponseWriter that keeps only the status code.
type statusWriter struct {
	header http.Header
	status int
}

func (w *statusWriter) Header() http.Header { return w.header }

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
