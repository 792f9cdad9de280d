package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSimulateBodyByteIdentity serves a run (cell), a multi (fig4) and a
// replay (trace) result every way a cluster node can: computed, as an LRU
// hit, forwarded through a non-owner, as that non-owner's LRU hit of the
// forwarded reply, and, after a warm restart of the whole cluster, as a
// store hit and forwarded again. Every body must be exactly what
// encoding/json's compact Encode writes for the SimulateResponse it
// decodes to, and every result object exactly json.Marshal of its
// CellResult: a result spliced from its stored encoding is
// indistinguishable from a fresh encode.
func TestSimulateBodyByteIdentity(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	mkCfg := func(i int) Config { return Config{Store: openTestStore(t, dirs[i], nil)} }
	nodes := newTestClusterNodes(t, 3, mkCfg)
	trace, _ := progenTrace(t, 1)
	cells := []Request{
		{Kind: KindCell, Benchmark: "compress", Plan: "N", Machine: MachineOOO},
		{Kind: KindFig4, App: "lu", Scheme: "informing", Processors: 4},
		{Kind: KindTrace, Machine: MachineOOO, Trace: trace},
	}
	post := func(node int, cached bool, c Request) {
		t.Helper()
		_, body := postJSON(t, nodes[node].ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{c}})
		cr := checkCompactBody(t, body).Results[0]
		if cr.Error != nil || cr.Cached != cached {
			t.Errorf("%s cell through node %d: error %+v, cached %t, want cached %t", c.Kind, node, cr.Error, cr.Cached, cached)
		}
	}

	for _, c := range cells {
		o := ownerIndex(t, nodes, c)
		ingress := (o + 1) % 3
		post(o, false, c)      // computed by the owner's worker
		post(o, true, c)       // the owner's LRU hit
		post(ingress, true, c) // forwarded, the owner's LRU answers
		post(ingress, true, c) // the ingress's LRU hit of the forwarded reply
	}
	// One batch of every kind and an invalid cell, whose error goes
	// through encoding/json between spliced cells.
	_, body := postJSON(t, nodes[0].ts.URL+"/v1/simulate", SimulateRequest{
		Cells: append([]Request{{Kind: KindCell, Benchmark: "nope"}}, cells...)})
	if sr := checkCompactBody(t, body); sr.Results[0].Error == nil {
		t.Errorf("invalid cell answered %+v, want an error", sr.Results[0])
	}

	bootClusterServers(t, nodes, mkCfg)
	for _, c := range cells {
		o := ownerIndex(t, nodes, c)
		post(o, true, c)       // the owner's store hit
		post((o+2)%3, true, c) // forwarded, the owner's LRU answers
	}

	var forwarded, storeHits uint64
	for _, n := range nodes {
		s := n.server()
		forwarded += s.met.Forwarded.Load()
		storeHits += s.met.StoreHits.Load()
		checkCachedEncodings(t, s)
	}
	if forwarded != uint64(len(cells)) || storeHits != uint64(len(cells)) {
		t.Errorf("after the restart: %d forwards and %d store hits, want %d of each", forwarded, storeHits, len(cells))
	}
}

// checkCompactBody checks a /v1/simulate body byte for byte against
// encoding/json and returns it decoded.
func checkCompactBody(t *testing.T, body []byte) SimulateResponse {
	t.Helper()
	sr := decodeSim(t, body)
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(sr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Errorf("body is not the compact encoding of what it decodes to:\n got: %s\nwant: %s", body, want.Bytes())
	}
	var raw struct {
		Results []json.RawMessage `json:"results"`
	}
	decodeTo(t, body, &raw)
	for i, r := range raw.Results {
		b, err := json.Marshal(sr.Results[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r, b) {
			t.Errorf("result %d is not json.Marshal of its CellResult:\n got: %s\nwant: %s", i, r, b)
		}
	}
	return sr
}

// checkCachedEncodings checks that every outcome s holds carries its
// encoding in canonical form, equal to a fresh encode of what it decodes
// to (decodeOutcome's check), whether the node computed it or kept a
// forwarded owner's bytes.
func checkCachedEncodings(t *testing.T, s *Server) {
	t.Helper()
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	for key, el := range s.cache.m {
		if _, err := decodeOutcome(el.Value.(*lruEntry).out.enc); err != nil {
			t.Errorf("cached %s: %v", key, err)
		}
	}
}
