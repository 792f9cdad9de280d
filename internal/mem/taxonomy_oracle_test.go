package mem

import (
	"math/rand"
	"testing"

	"informing/internal/stats"
)

// taxOracle is an independent, deliberately naive model of the miss
// taxonomy: Hill's definitions applied directly to the reference stream
// of refCache, with a Go map and a second refCache instead of the
// classifier's tag table, node pool and way memo.
//
//   - compulsory: the first miss on a line;
//   - coherence: the first miss after a coherence invalidation removed
//     the line;
//   - conflict: a fully-associative true-LRU cache of the same line
//     count still holds the line (its LRU stack distance is below the
//     line count);
//   - capacity: any other miss.
//
// The fully-associative model is refCache built as one set of as many
// ways as the cache has lines, under LRU, and is pure recency: every
// reference, hit or miss, accesses it; invalidations leave it alone; a
// flush (a context switch) empties it. The seen set survives a flush.
type taxOracle struct {
	cache, shadow *refCache

	seen map[uint64]bool // ever missed -> coherence mark pending

	classes stats.MissClasses
}

func newTaxOracle(cfg CacheConfig) *taxOracle {
	fa := CacheConfig{SizeBytes: cfg.SizeBytes, LineBytes: cfg.LineBytes, Assoc: cfg.SizeBytes / cfg.LineBytes}
	return &taxOracle{cache: newRefCache(cfg), shadow: newRefCache(fa), seen: map[uint64]bool{}}
}

func (o *taxOracle) access(addr uint64, write bool) bool {
	hit, _, _ := o.cache.access(addr, write)
	if !hit {
		tag := addr / o.cache.lineBytes
		mark, seen := o.seen[tag]
		switch {
		case !seen:
			o.classes.Compulsory++
		case mark:
			o.classes.Coherence++
		case o.shadow.contains(addr):
			o.classes.Conflict++
		default:
			o.classes.Capacity++
		}
		o.seen[tag] = false
	}
	o.shadow.access(addr, false)
	return hit
}

func (o *taxOracle) invalidate(addr uint64, coherence bool) bool {
	inv := o.cache.invalidate(addr)
	if inv && coherence {
		o.seen[addr/o.cache.lineBytes] = true
	}
	return inv
}

func (o *taxOracle) flush() {
	o.cache.flush()
	o.shadow.flush()
}

// TestTaxonomyMatchesOracle is the classifier's independent check: seeded
// random streams of Access / Invalidate / InvalidateCoherence / Flush,
// for LRU and every policy, in a direct-mapped and two set-associative
// geometries, replayed through a classified Cache and the naive oracle,
// with the hit/miss outcome and all four classes compared after every
// operation. A quarter of the references repeat the previous address, so
// the way memo is exercised. The addresses span four times the cache's
// line count, so every class occurs; the last row spans 4096 lines, so
// the classifier's tag table grows while the stream runs.
func TestTaxonomyMatchesOracle(t *testing.T) {
	rows := []struct {
		geom  CacheConfig
		lines int // distinct lines the addresses span
	}{
		{CacheConfig{SizeBytes: 512, LineBytes: 32, Assoc: 1}, 64},
		{CacheConfig{SizeBytes: 1024, LineBytes: 32, Assoc: 2}, 128},
		{CacheConfig{SizeBytes: 2048, LineBytes: 64, Assoc: 4}, 128},
		{CacheConfig{SizeBytes: 512, LineBytes: 32, Assoc: 1}, 4096},
	}
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			var total stats.MissClasses
			for gi, row := range rows {
				for seed := int64(0); seed < 8; seed++ {
					cfg := row.geom
					cfg.Policy = policy
					rng := rand.New(rand.NewSource(9000 + 100*int64(gi) + seed))
					c := MustCache(cfg)
					c.EnableTaxonomy()
					o := newTaxOracle(cfg)
					span := row.lines * cfg.LineBytes
					var last uint64
					for op := 0; op < 6000; op++ {
						addr := uint64(rng.Intn(span))
						if rng.Intn(4) == 0 {
							addr = last
						}
						last = addr
						switch k := rng.Intn(100); {
						case k < 78:
							write := rng.Intn(3) == 0
							if g, w := mustHit(c.Access(addr, write)), o.access(addr, write); g != w {
								t.Fatalf("geom %d seed %d op %d: Access(%#x) hit %v, oracle %v", gi, seed, op, addr, g, w)
							}
						case k < 88:
							if g, w := c.Invalidate(addr), o.invalidate(addr, false); g != w {
								t.Fatalf("geom %d seed %d op %d: Invalidate(%#x) = %v, oracle %v", gi, seed, op, addr, g, w)
							}
						case k < 99:
							if g, w := c.InvalidateCoherence(addr), o.invalidate(addr, true); g != w {
								t.Fatalf("geom %d seed %d op %d: InvalidateCoherence(%#x) = %v, oracle %v", gi, seed, op, addr, g, w)
							}
						default:
							c.Flush()
							o.flush()
						}
						if g := c.Taxonomy(); g != o.classes {
							t.Fatalf("geom %d seed %d op %d: taxonomy %+v, oracle %+v", gi, seed, op, g, o.classes)
						}
					}
					total = total.Add(o.classes)
				}
			}
			if total.Compulsory == 0 || total.Capacity == 0 || total.Conflict == 0 || total.Coherence == 0 {
				t.Fatalf("a class never occurred (%+v); the streams lost their coverage", total)
			}
		})
	}
}

func mustHit(hit bool, _ uint64, _ bool) bool { return hit }

// TestHierarchyTaxonomyMatchesOracle checks both levels of a Hierarchy
// against the oracle on a multi-thread reference stream replayed the way
// trace replay does it: one hierarchy per thread, ProbeData for each
// reference, and a store removing the line from both levels of every
// other thread's hierarchy with InvalidateCoherence. The satisfying
// level and every class of every level are compared after every
// reference.
func TestHierarchyTaxonomyMatchesOracle(t *testing.T) {
	const tids = 3
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			cfg := HierConfig{
				L1: CacheConfig{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 2, Policy: policy},
				L2: CacheConfig{SizeBytes: 4 << 10, LineBytes: 32, Assoc: 4, Policy: policy},
			}
			var hs [tids]*Hierarchy
			var o1, o2 [tids]*taxOracle
			for i := range hs {
				h, err := NewHierarchy(cfg)
				if err != nil {
					t.Fatal(err)
				}
				hs[i], o1[i], o2[i] = h, newTaxOracle(cfg.L1), newTaxOracle(cfg.L2)
			}
			rng := rand.New(rand.NewSource(77))
			var l1, l2 stats.MissClasses
			var last uint64
			for op := 0; op < 30000; op++ {
				tid := rng.Intn(tids)
				addr := uint64(rng.Intn(16 << 10))
				if rng.Intn(4) == 0 {
					addr = last
				}
				last = addr
				store := rng.Intn(8) == 0
				want := 3
				if o1[tid].access(addr, store) {
					want = 1
				} else if o2[tid].access(addr, store) {
					want = 2
				}
				if got := hs[tid].ProbeData(addr, store); got != want {
					t.Fatalf("op %d: tid %d ProbeData(%#x) = %d, oracle %d", op, tid, addr, got, want)
				}
				if store {
					for o := range hs {
						if o == tid {
							continue
						}
						if g, w := hs[o].L1.InvalidateCoherence(addr), o1[o].invalidate(addr, true); g != w {
							t.Fatalf("op %d: tid %d L1 InvalidateCoherence(%#x) = %v, oracle %v", op, o, addr, g, w)
						}
						if g, w := hs[o].L2.InvalidateCoherence(addr), o2[o].invalidate(addr, true); g != w {
							t.Fatalf("op %d: tid %d L2 InvalidateCoherence(%#x) = %v, oracle %v", op, o, addr, g, w)
						}
					}
				}
				for i, h := range hs {
					if g, w := h.L1.Taxonomy(), o1[i].classes; g != w {
						t.Fatalf("op %d: tid %d L1 taxonomy %+v, oracle %+v", op, i, g, w)
					}
					if g, w := h.L2.Taxonomy(), o2[i].classes; g != w {
						t.Fatalf("op %d: tid %d L2 taxonomy %+v, oracle %+v", op, i, g, w)
					}
				}
			}
			for i := range hs {
				l2 = l2.Add(o2[i].classes)
				l1 = l1.Add(o1[i].classes)
			}
			if l1.Coherence == 0 || l1.Conflict == 0 || l2.Coherence == 0 || l2.Conflict == 0 || l2.Capacity == 0 {
				t.Fatalf("classes never occurred (L1 %+v, L2 %+v); the stream lost its coverage", l1, l2)
			}
		})
	}
}
