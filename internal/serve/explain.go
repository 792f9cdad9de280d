package serve

// POST /v1/explain: the miss-taxonomy view of the simulation service.
//
// An explain request is a batch of cells exactly like POST /v1/simulate —
// the same Request wire type, the same canonicalization, the same cache
// fingerprints — but the response answers a different question: not "how
// fast was it" but "why did it miss". Each result carries the per-level
// Hill taxonomy (DESIGN.md §17) of the simulated run: compulsory /
// capacity / conflict / coherence counts plus each class's fraction of
// the level's misses.
//
// Because explain rides the one cell pipeline (serveCells), everything
// the simulate path earned comes for free: repeats are served from the
// RAM LRU / durable store without re-simulating (the differential tests
// prove a zero sim_instrs delta), identical concurrent requests coalesce
// onto one flight, and in cluster mode non-owned fingerprints forward to
// their rendezvous owner — an explain and a simulate of the same cell
// share one cache entry, because the taxonomy is part of every stored
// outcome, not a separate computation.

import (
	"net/http"

	"informing/internal/stats"
)

// ExplainRequest is the body of POST /v1/explain: a batch of cells whose
// miss taxonomy the caller wants. Any simulate-able kind is accepted —
// cell and program kinds explain the run's data hierarchy, fig4 the
// per-processor hierarchies summed, trace the replayed hierarchies.
type ExplainRequest struct {
	Cells []Request `json:"cells"`
}

// ClassBreakdown is one cache level's miss taxonomy on the wire: the
// class counts (which sum to Misses by construction) and each class's
// fraction of the level's misses (all zero when the level never missed).
type ClassBreakdown struct {
	Misses     uint64 `json:"misses"`
	Compulsory uint64 `json:"compulsory"`
	Capacity   uint64 `json:"capacity"`
	Conflict   uint64 `json:"conflict"`
	Coherence  uint64 `json:"coherence"`

	CompulsoryFrac float64 `json:"compulsory_frac"`
	CapacityFrac   float64 `json:"capacity_frac"`
	ConflictFrac   float64 `json:"conflict_frac"`
	CoherenceFrac  float64 `json:"coherence_frac"`
}

func breakdown(t stats.MissClasses) ClassBreakdown {
	b := ClassBreakdown{
		Misses:     t.Total(),
		Compulsory: t.Compulsory,
		Capacity:   t.Capacity,
		Conflict:   t.Conflict,
		Coherence:  t.Coherence,
	}
	if b.Misses > 0 {
		inv := 1 / float64(b.Misses)
		b.CompulsoryFrac = float64(t.Compulsory) * inv
		b.CapacityFrac = float64(t.Capacity) * inv
		b.ConflictFrac = float64(t.Conflict) * inv
		b.CoherenceFrac = float64(t.Coherence) * inv
	}
	return b
}

// ExplainResult is the per-cell answer: the cache key and cached flag
// (identical to what /v1/simulate would report for the same cell), the
// canonical replacement policy the cell ran under (cell kinds only), and
// the two per-level breakdowns.
type ExplainResult struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Policy string          `json:"policy,omitempty"`
	L1     *ClassBreakdown `json:"l1,omitempty"`
	L2     *ClassBreakdown `json:"l2,omitempty"`
	Error  *WireError      `json:"error,omitempty"`
}

// ExplainResponse mirrors ExplainRequest: Results[i] answers Cells[i].
type ExplainResponse struct {
	Results []ExplainResult `json:"results"`
}

// explainResult projects one completed cell onto its taxonomy view.
func explainResult(cr CellResult, policy string) ExplainResult {
	er := ExplainResult{Key: cr.Key, Cached: cr.Cached, Policy: policy, Error: cr.Error}
	var l1, l2 stats.MissClasses
	switch {
	case cr.Run != nil:
		l1, l2 = cr.Run.L1Tax, cr.Run.L2Tax
	case cr.Multi != nil:
		l1, l2 = cr.Multi.L1Tax, cr.Multi.L2Tax
	case cr.Replay != nil:
		l1, l2 = cr.Replay.Total.L1Tax, cr.Replay.Total.L2Tax
	default:
		return er
	}
	b1, b2 := breakdown(l1), breakdown(l2)
	er.L1, er.L2 = &b1, &b2
	return er
}

// handleExplain renders the cell pipeline's results as taxonomies, each
// under its cell's canonical replacement policy.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.serveCells(w, r, func(w http.ResponseWriter, cells []Request, results []CellResult) {
		out := make([]ExplainResult, len(results))
		for i, cr := range results {
			out[i] = explainResult(cr.decoded(), cells[i].Policy)
		}
		writeJSON(w, http.StatusOK, ExplainResponse{Results: out})
	})
}
