package mem

import (
	"math/rand"
	"testing"

	"informing/internal/stats"
)

// mkTaxCache builds a cache with the miss classifier attached.
func mkTaxCache(size, line, assoc int, policy string) *Cache {
	c := MustCache(CacheConfig{SizeBytes: size, LineBytes: line, Assoc: assoc, Policy: policy})
	c.EnableTaxonomy()
	return c
}

func wantClasses(t *testing.T, c *Cache, want stats.MissClasses) {
	t.Helper()
	if got := c.Taxonomy(); got != want {
		t.Fatalf("taxonomy = %+v, want %+v", got, want)
	}
}

// TestTaxonomyCompulsory: the first reference to a line is compulsory —
// no finite cache could have held it — and re-references hit, leaving
// the classification untouched.
func TestTaxonomyCompulsory(t *testing.T) {
	c := mkTaxCache(1024, 32, 2, "")
	for a := uint64(0); a < 8*32; a += 32 {
		c.Access(a, false)
	}
	wantClasses(t, c, stats.MissClasses{Compulsory: 8})
	for a := uint64(0); a < 8*32; a += 32 {
		if hit, _, _ := c.Access(a, false); !hit {
			t.Fatalf("warm re-reference of %#x missed", a)
		}
	}
	wantClasses(t, c, stats.MissClasses{Compulsory: 8})
}

// TestTaxonomyConflict: two lines ping-ponging in one set of a
// direct-mapped cache whose total capacity could hold both. The
// fully-associative shadow keeps both resident, so every miss after the
// two compulsory ones is a conflict miss — the associativity's fault,
// not the capacity's.
func TestTaxonomyConflict(t *testing.T) {
	c := mkTaxCache(256, 32, 1, "") // 8 sets, direct mapped; shadow holds 8 lines
	a, b := uint64(0), uint64(256)  // same set, different tags
	c.Access(a, false)
	c.Access(b, false)
	wantClasses(t, c, stats.MissClasses{Compulsory: 2})
	for i := 0; i < 5; i++ {
		c.Access(a, false)
		c.Access(b, false)
	}
	wantClasses(t, c, stats.MissClasses{Compulsory: 2, Conflict: 10})
}

// TestTaxonomyCapacity: a cyclic working set one line larger than the
// whole cache misses every time even fully associative, so after the
// compulsory pass every miss is a capacity miss.
func TestTaxonomyCapacity(t *testing.T) {
	c := mkTaxCache(64, 32, 2, "") // one set, two ways; shadow holds 2 lines
	lines := []uint64{0, 64, 128}  // 3-line cyclic working set, capacity 2
	for _, a := range lines {
		c.Access(a, false)
	}
	wantClasses(t, c, stats.MissClasses{Compulsory: 3})
	for i := 0; i < 4; i++ {
		for _, a := range lines {
			c.Access(a, false)
		}
	}
	wantClasses(t, c, stats.MissClasses{Compulsory: 3, Capacity: 12})
}

// TestTaxonomyCoherence: a line removed by InvalidateCoherence classifies
// its next miss as a coherence miss — with priority over conflict even
// though the shadow still holds the line — and the mark is consumed by
// that one miss, not sticky.
func TestTaxonomyCoherence(t *testing.T) {
	c := mkTaxCache(1024, 32, 2, "")
	const addr = 0x40
	c.Access(addr, false)
	if !c.InvalidateCoherence(addr) {
		t.Fatal("InvalidateCoherence missed a present line")
	}
	c.Access(addr, false) // shadow holds the line, but coherence wins
	wantClasses(t, c, stats.MissClasses{Compulsory: 1, Coherence: 1})
	// The mark was consumed: a plain (speculative-squash) invalidation
	// classifies the refetch by recency — conflict, since the shadow
	// deliberately keeps the line's recency across architectural
	// invalidations.
	if !c.Invalidate(addr) {
		t.Fatal("Invalidate missed a present line")
	}
	c.Access(addr, false)
	wantClasses(t, c, stats.MissClasses{Compulsory: 1, Coherence: 1, Conflict: 1})
}

// TestTaxonomyFlushCapacity: a Flush (context switch) empties the shadow
// alongside the cache, so post-flush re-references are capacity misses —
// but never compulsory, because the infinite seen filter survives.
func TestTaxonomyFlushCapacity(t *testing.T) {
	c := mkTaxCache(256, 32, 2, "")
	for a := uint64(0); a < 4*32; a += 32 {
		c.Access(a, false)
	}
	c.Flush()
	for a := uint64(0); a < 4*32; a += 32 {
		c.Access(a, false)
	}
	wantClasses(t, c, stats.MissClasses{Compulsory: 4, Capacity: 4})
}

// TestTaxonomyShadowRecycling: the shadow's preallocated node pool must
// recycle correctly under sustained pressure far beyond its size — the
// classes keep partitioning the misses and a flush mid-stream resets the
// shadow without leaking or double-freeing nodes.
func TestTaxonomyShadowRecycling(t *testing.T) {
	c := mkTaxCache(128, 32, 2, "") // 4-line shadow
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 5000; op++ {
		c.Access(uint64(rng.Intn(64))*32, rng.Intn(4) == 0)
		if op%977 == 0 {
			c.Flush()
		}
	}
	tx := c.Taxonomy()
	if sum := tx.Compulsory + tx.Capacity + tx.Conflict + tx.Coherence; sum != c.Misses {
		t.Fatalf("classes sum %d, misses %d (%+v)", sum, c.Misses, tx)
	}
	if tx.Compulsory != 64 {
		t.Fatalf("compulsory = %d, want one per distinct line (64)", tx.Compulsory)
	}
}

// TestTaxonomyConservationRandom: on arbitrary operation mixes — including
// coherence invalidations — the four classes always sum exactly to the
// miss counter, for the LRU path and every Policy-seam policy.
func TestTaxonomyConservationRandom(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			c := mkTaxCache(512, 32, 2, policy)
			rng := rand.New(rand.NewSource(23))
			for op := 0; op < 20000; op++ {
				addr := uint64(rng.Intn(128)) * 32
				switch k := rng.Intn(100); {
				case k < 80:
					c.Access(addr, rng.Intn(3) == 0)
				case k < 90:
					c.Invalidate(addr)
				case k < 98:
					c.InvalidateCoherence(addr)
				default:
					c.Flush()
				}
			}
			tx := c.Taxonomy()
			if sum := tx.Compulsory + tx.Capacity + tx.Conflict + tx.Coherence; sum != c.Misses {
				t.Fatalf("classes sum %d, misses %d (%+v)", sum, c.Misses, tx)
			}
			if tx.Coherence == 0 {
				t.Fatal("trace produced no coherence misses; test lost its coverage")
			}
		})
	}
}

// TestTaxonomyHitDoesNotMarkSeen: only misses (and coherence marks)
// enter the seen filter. A classifier attached to a warm cache has seen
// no miss on its resident line, so hitting that line leaves it unseen,
// and its refetch after an invalidation is compulsory.
func TestTaxonomyHitDoesNotMarkSeen(t *testing.T) {
	c := mkCache(1024, 32, 2)
	const addr = 0x40
	c.Access(addr, false)
	c.EnableTaxonomy()
	c.Access(addr, false)   // memoized hit
	c.Access(0x1000, false) // compulsory, moves the memo
	c.Access(addr, false)   // scanned hit
	c.Invalidate(addr)
	c.Access(addr, false)
	wantClasses(t, c, stats.MissClasses{Compulsory: 2})
}

// TestTaxonomyObservationOnly: enabling the classifier must not change a
// single architectural outcome. Identical traces through a bare cache
// and a classified one must agree on every result and counter, for LRU
// and every policy, with a quarter of the references repeating the
// previous address so the way memo and the classifier's memos meet. The
// classified side takes its invalidations through InvalidateCoherence
// half the time, so the coherence marks are in play too.
func TestTaxonomyObservationOnly(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			bare := mkPolCache(1024, 32, 2, policy)
			taxed := mkTaxCache(1024, 32, 2, policy)
			rng := rand.New(rand.NewSource(31))
			var last uint64
			for op := 0; op < 10000; op++ {
				addr := uint64(rng.Intn(256)) * 32
				if rng.Intn(4) == 0 {
					addr = last
				}
				last = addr
				switch k := rng.Intn(100); {
				case k < 80:
					write := rng.Intn(3) == 0
					gh, gwb, gok := taxed.Access(addr, write)
					wh, wwb, wok := bare.Access(addr, write)
					if gh != wh || gwb != wwb || gok != wok {
						t.Fatalf("op %d: Access(%#x,%v) diverged with taxonomy: (%v,%#x,%v) vs (%v,%#x,%v)",
							op, addr, write, gh, gwb, gok, wh, wwb, wok)
					}
				case k < 90:
					if g, w := taxed.Contains(addr), bare.Contains(addr); g != w {
						t.Fatalf("op %d: Contains(%#x) diverged with taxonomy", op, addr)
					}
				case k < 94:
					if g, w := taxed.Invalidate(addr), bare.Invalidate(addr); g != w {
						t.Fatalf("op %d: Invalidate(%#x) diverged with taxonomy", op, addr)
					}
				case k < 98:
					if g, w := taxed.InvalidateCoherence(addr), bare.Invalidate(addr); g != w {
						t.Fatalf("op %d: InvalidateCoherence(%#x) diverged with taxonomy", op, addr)
					}
				default:
					taxed.Flush()
					bare.Flush()
				}
			}
			if taxed.Accesses != bare.Accesses || taxed.Misses != bare.Misses {
				t.Fatalf("counters diverged: taxed (%d,%d), bare (%d,%d)",
					taxed.Accesses, taxed.Misses, bare.Accesses, bare.Misses)
			}
		})
	}
}
