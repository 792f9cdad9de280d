package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"informing/internal/stats"
)

// TestStoreDropsNonCanonicalPayload stores payloads that carry a valid
// checksum and decode to a run but are not what encoded writes: one with
// leading space, which writeSimulate's splice would turn into invalid
// JSON, and one with an unknown field, which it would pass to the client.
// Each must take the undecodable-entry path: counted as a store error,
// deleted, recomputed and served as a fresh, compact result.
func TestStoreDropsNonCanonicalPayload(t *testing.T) {
	var run stats.Run
	run.Cycles = 1
	canon := encoded(outcome{run: &run}).enc
	for name, payload := range map[string][]byte{
		"leading space": append([]byte(" "), canon...),
		"unknown field": append(canon[:len(canon)-1:len(canon)-1], `,"zz":1}`...),
	} {
		t.Run(name, func(t *testing.T) {
			c := cellReq("compress", "N", MachineOOO)
			canonReq, err := Canonicalize(c, 0)
			if err != nil {
				t.Fatal(err)
			}
			key := Fingerprint(canonReq)
			st := openTestStore(t, t.TempDir(), nil)
			if err := st.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			fr := newFakeRunner(false)
			s, ts := newTestServer(t, Config{Store: st, Logf: t.Logf, runCell: fr.run})
			_, body := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Cells: []Request{c}})
			cr := checkCompactBody(t, body).Results[0]
			if cr.Error != nil || cr.Cached || cr.Run == nil {
				t.Errorf("served %s, want a fresh run", body)
			}
			if fr.total() != 1 || s.met.StoreErrors.Load() != 1 || s.met.StoreHits.Load() != 0 {
				t.Errorf("%d computations, %d store errors, %d store hits; want 1, 1, 0",
					fr.total(), s.met.StoreErrors.Load(), s.met.StoreHits.Load())
			}
			want := encoded(outcome{run: cr.Run}).enc
			if b, ok, err := st.Get(key); err != nil || !ok || !bytes.Equal(b, want) {
				t.Errorf("store holds %q (ok %t, err %v), want the recomputed %q", b, ok, err, want)
			}
		})
	}
}

// FuzzDecodeOutcome feeds arbitrary store payloads to the codec. It must
// never panic, and any payload it accepts must splice into a one-cell
// /v1/simulate body equal to encoding/json's compact encoding of the
// SimulateResponse holding the decoded result. The seed corpus holds one
// real run, multi and replay payload and the two non-canonical payloads
// TestStoreDropsNonCanonicalPayload pins.
func FuzzDecodeOutcome(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		out, err := decodeOutcome(payload)
		if err != nil {
			return
		}
		cr := CellResult{Key: "0123456789abcdef0123456789abcdef", Cached: true,
			Run: out.run, Multi: out.multiRes, Replay: out.replay, enc: out.enc}
		rec := httptest.NewRecorder()
		writeSimulate(rec, []CellResult{cr})
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(SimulateResponse{Results: []CellResult{cr}}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Fatalf("accepted payload %q serves\n%s\nwant\n%s", payload, rec.Body.Bytes(), want.Bytes())
		}
	})
}
