package serve

// The durable store holds opaque payloads; this file is the codec between
// a completed outcome and those bytes. The payload is the compact JSON of
// storedOutcome, and it is also the outcome's encoding (outcome.enc), the
// tail every /v1/simulate cell serving the outcome splices (writeSimulate).
// A node encodes each successful outcome once, where it is computed;
// the ingress keeps a forwarded reply's bytes (sliceReply). A store hit
// is served from its payload only if the payload is canonical: byte for
// byte what encoded writes for the value it decodes to. A payload with
// leading space, an unknown field or any other spelling is dropped like
// an undecodable one, so writeSimulate never splices bytes that
// encoding/json would not have written. A store-served response is
// therefore byte-identical to the computed one.
// JSON is safe here because every field of stats.Run, multi.Result and
// trace.ReplayResult is integral: the decoded structs that /v1/explain
// and /v1/experiment read are exactly the stored ones.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"informing/internal/multi"
	"informing/internal/stats"
	"informing/internal/trace"
)

type storedOutcome struct {
	Run    *stats.Run          `json:"run,omitempty"`
	Multi  *multi.Result       `json:"multi,omitempty"`
	Replay *trace.ReplayResult `json:"replay,omitempty"`
}

// encoded returns a successful outcome carrying its encoding, the compact
// JSON of storedOutcome. An outcome that cannot be encoded could be
// neither stored nor served: it becomes an error.
func encoded(out outcome) outcome {
	b, err := json.Marshal(storedOutcome{Run: out.run, Multi: out.multiRes, Replay: out.replay})
	if err != nil {
		return outcome{err: fmt.Errorf("serve: encoding outcome: %w", err)}
	}
	out.enc = b
	return out
}

// decodeOutcome parses a store payload back into an outcome carrying its
// encoding, and accepts the payload only in the canonical form encoded
// writes. The payload already passed the store's checksum, so a rejection
// means a codec or version bug: the caller drops the entry and recomputes.
func decodeOutcome(b []byte) (outcome, error) {
	var so storedOutcome
	if err := json.Unmarshal(b, &so); err != nil {
		return outcome{}, fmt.Errorf("serve: stored outcome: %w", err)
	}
	set := 0
	for _, f := range [...]bool{so.Run != nil, so.Multi != nil, so.Replay != nil} {
		if f {
			set++
		}
	}
	if set != 1 {
		return outcome{}, fmt.Errorf("serve: stored outcome needs exactly one of run/multi/replay")
	}
	out := encoded(outcome{run: so.Run, multiRes: so.Multi, replay: so.Replay})
	if out.err != nil {
		return outcome{}, out.err
	}
	if !bytes.Equal(out.enc, b) {
		return outcome{}, fmt.Errorf("serve: stored outcome is not in canonical form")
	}
	return out, nil
}
