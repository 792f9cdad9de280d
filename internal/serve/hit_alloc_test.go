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
// (both endpoints share one cache entry). Request construction and the
// response writer stay outside the count. The bounds are the counts
// measured when the test was written, so a change that adds an
// allocation to the hit path fails here. Under -race the count is only
// logged: the race detector makes sync.Pool (fmt's and encoding/json's)
// drop a random share of its buffers.
func TestCacheHitAllocations(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	cell := explainCell("")
	for _, tc := range []struct {
		path   string
		body   any
		allocs float64
	}{
		{"/v1/simulate", SimulateRequest{Cells: []Request{cell}}, 22},
		{"/v1/explain", ExplainRequest{Cells: []Request{cell}}, 25},
	} {
		t.Run(tc.path, func(t *testing.T) {
			body, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			// The first request fills the cache (computing it the first
			// time round); every measured one below is a hit.
			w := &statusWriter{header: http.Header{}}
			h.ServeHTTP(w, httptest.NewRequest("POST", tc.path, bytes.NewReader(body)))
			if w.status != http.StatusOK {
				t.Fatalf("warm-up status = %d", w.status)
			}
			const runs = 100
			reqs := make([]*http.Request, runs+1) // AllocsPerRun adds one warm-up call
			ws := make([]*statusWriter, runs+1)
			for i := range reqs {
				reqs[i] = httptest.NewRequest("POST", tc.path, bytes.NewReader(body))
				ws[i] = &statusWriter{header: http.Header{}}
			}
			hits, instrs := s.met.Hits.Load(), s.Sim().Instrs.Load()
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
			if d := s.Sim().Instrs.Load() - instrs; d != 0 {
				t.Fatalf("cache hits simulated %d instructions", d)
			}
			t.Logf("%s cache hit: %.0f allocations (bound %.0f)", tc.path, got, tc.allocs)
			if got > tc.allocs && !raceEnabled {
				t.Errorf("%s cache hit: %.0f allocations, bound %.0f", tc.path, got, tc.allocs)
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
