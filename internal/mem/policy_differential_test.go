package mem

import (
	"math/rand"
	"testing"
)

// refPolicyCache is an independent, deliberately naive model of the RRIP
// replacement family (DESIGN.md §17): per-set linear scan, write-allocate,
// first-invalid / lowest-index victim choice, and the documented SRRIP /
// BRRIP / TRRIP insertion, promotion and aging rules implemented directly
// on small per-way records rather than packed metadata words. The
// differential battery replays identical operation traces through Cache
// (built with CacheConfig.Policy) and this model and requires identical
// observable behaviour — hit/miss results, writeback signals, victim
// choices, statistics — pinning the Policy seam to the reference
// semantics bit for bit.
type refPolicyCache struct {
	lineBytes int
	sets      int
	assoc     int
	policy    string
	lines     [][]refPolWay

	fills uint64           // brrip deterministic bimodal counter
	temp  map[uint64]uint8 // trrip: evicted tag -> hot/cold
	ring  []uint64         // trrip FIFO bounding temp
	next  int

	accesses uint64
	misses   uint64
}

type refPolWay struct {
	tag    uint64
	valid  bool
	dirty  bool
	rrpv   int
	reused bool
}

func newRefPolicyCache(cfg CacheConfig) *refPolicyCache {
	r := &refPolicyCache{
		lineBytes: cfg.LineBytes,
		sets:      cfg.Sets(),
		assoc:     cfg.Assoc,
		policy:    cfg.Policy,
		temp:      map[uint64]uint8{},
	}
	r.lines = make([][]refPolWay, r.sets)
	for i := range r.lines {
		r.lines[i] = make([]refPolWay, r.assoc)
	}
	return r
}

func (r *refPolicyCache) tagOf(addr uint64) uint64 { return addr / uint64(r.lineBytes) }

// insertRRPV applies the per-policy insertion rule for a fill of tag.
func (r *refPolicyCache) insertRRPV(tag uint64) int {
	switch r.policy {
	case "srrip":
		return 2
	case "brrip":
		r.fills++
		if r.fills%32 == 0 {
			return 2
		}
		return 3
	case "trrip":
		switch r.temp[tag] {
		case 2: // hot: reused during its last residency
			return 1
		case 1: // cold
			return 3
		default:
			return 2
		}
	}
	panic("refPolicyCache: unknown policy " + r.policy)
}

// recordEvict observes a valid victim's eviction (TRRIP temperature
// history; a no-op for the static policies).
func (r *refPolicyCache) recordEvict(w refPolWay) {
	if r.policy != "trrip" {
		return
	}
	temp := uint8(1) // cold
	if w.reused {
		temp = 2 // hot
	}
	if _, known := r.temp[w.tag]; !known {
		if len(r.ring) < 1024 {
			r.ring = append(r.ring, w.tag)
		} else {
			delete(r.temp, r.ring[r.next])
			r.ring[r.next] = w.tag
			r.next = (r.next + 1) % 1024
		}
	}
	r.temp[w.tag] = temp
}

func (r *refPolicyCache) access(addr uint64, write bool) (hit bool, writeback uint64, wb bool) {
	r.accesses++
	tag := r.tagOf(addr)
	set := r.lines[tag%uint64(r.sets)]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].rrpv = 0
			set[i].reused = true
			if write {
				set[i].dirty = true
			}
			return true, 0, false
		}
	}
	r.misses++
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		// RRIP victim search: first way (lowest index) at distant RRPV 3,
		// aging the whole set by one until such a way exists.
	scan:
		for {
			for i := range set {
				if set[i].rrpv == 3 {
					victim = i
					break scan
				}
			}
			for i := range set {
				set[i].rrpv++
			}
		}
		r.recordEvict(set[victim])
	}
	w := &set[victim]
	if w.valid && w.dirty {
		writeback = w.tag * uint64(r.lineBytes)
		wb = true
	}
	*w = refPolWay{tag: tag, valid: true, dirty: write, rrpv: r.insertRRPV(tag)}
	return false, writeback, wb
}

func (r *refPolicyCache) contains(addr uint64) bool {
	tag := r.tagOf(addr)
	for _, w := range r.lines[tag%uint64(r.sets)] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

func (r *refPolicyCache) invalidate(addr uint64) bool {
	tag := r.tagOf(addr)
	set := r.lines[tag%uint64(r.sets)]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i] = refPolWay{}
			return true
		}
	}
	return false
}

// flush clears every line. The brrip fill counter and the trrip
// temperature history survive, mirroring Cache.Flush, which resets
// per-way metadata but not the policy object.
func (r *refPolicyCache) flush() {
	for _, set := range r.lines {
		for i := range set {
			set[i] = refPolWay{}
		}
	}
}

// nonLRUPolicies are the Policy-seam implementations the battery covers
// (the built-in LRU path has its own differential in
// TestMemoizedCacheMatchesReference).
var nonLRUPolicies = []string{"srrip", "brrip", "trrip"}

func mkPolCache(size, line, assoc int, policy string) *Cache {
	return MustCache(CacheConfig{SizeBytes: size, LineBytes: line, Assoc: assoc, Policy: policy})
}

// TestPolicyCacheMatchesReference is the policy differential battery:
// for each non-LRU policy, 8 seeded random traces of Access / Contains /
// Invalidate / Flush in each of three rows, replayed through Cache and
// the naive reference with every per-operation result compared. The miss
// taxonomy is enabled on the Cache side throughout — it must be
// observation-only, so its presence cannot perturb any outcome — and its
// four classes must sum exactly to the misses on every trace.
//
// The first two rows draw from a small address pool, so promotion
// (Touch), aging and TRRIP's temperature history all engage. The third
// draws from more than four times TRRIP's 1024-tag history in distinct
// lines through a cache small enough that nearly every miss evicts, even
// between flushes, so the history fills and forgets its oldest tags over
// and over, while half its draws come from a warm subset whose refills
// consult the history before it forgets them.
func TestPolicyCacheMatchesReference(t *testing.T) {
	rows := []struct {
		geom  CacheConfig
		lines int // distinct lines in the address pool (0: 64 random addresses)
	}{
		{CacheConfig{SizeBytes: 1024, LineBytes: 32, Assoc: 2}, 0},
		{CacheConfig{SizeBytes: 4096, LineBytes: 64, Assoc: 4}, 0},
		{CacheConfig{SizeBytes: 512, LineBytes: 64, Assoc: 2}, 5000},
	}
	for _, policy := range nonLRUPolicies {
		t.Run(policy, func(t *testing.T) {
			for gi, row := range rows {
				for seed := int64(0); seed < 8; seed++ {
					cfg := row.geom
					cfg.Policy = policy
					rng := rand.New(rand.NewSource(7000 + 100*int64(gi) + seed))
					c := MustCache(cfg)
					c.EnableTaxonomy()
					ref := newRefPolicyCache(cfg)
					var pool []uint64
					if row.lines == 0 {
						pool = make([]uint64, 64)
						for i := range pool {
							pool[i] = uint64(rng.Intn(8 * cfg.SizeBytes))
						}
					} else {
						// Distinct lines (the low 13 bits of the line
						// number are i) with random high bits, so their
						// hashes collide as arbitrary tags' do.
						pool = make([]uint64, row.lines)
						for i := range pool {
							pool[i] = (uint64(rng.Int63n(1<<30))<<13 | uint64(i)) * uint64(cfg.LineBytes)
						}
					}
					var last uint64
					for op := 0; op < 12000; op++ {
						var addr uint64
						switch rng.Intn(4) {
						case 0:
							addr = last // memo pressure
						default:
							i := rng.Intn(len(pool))
							if row.lines > 0 && rng.Intn(2) == 0 {
								i %= 256 // warm lines, refilled while TRRIP still remembers them
							}
							addr = pool[i]
						}
						last = addr
						switch k := rng.Intn(100); {
						case k < 70:
							write := rng.Intn(3) == 0
							gh, gwb, gok := c.Access(addr, write)
							wh, wwb, wok := ref.access(addr, write)
							if gh != wh || gwb != wwb || gok != wok {
								t.Fatalf("geom %d seed %d op %d: Access(%#x,%v) = (%v,%#x,%v), reference (%v,%#x,%v)",
									gi, seed, op, addr, write, gh, gwb, gok, wh, wwb, wok)
							}
						case k < 85:
							if g, w := c.Contains(addr), ref.contains(addr); g != w {
								t.Fatalf("geom %d seed %d op %d: Contains(%#x) = %v, reference %v", gi, seed, op, addr, g, w)
							}
						case k < 98:
							if g, w := c.Invalidate(addr), ref.invalidate(addr); g != w {
								t.Fatalf("geom %d seed %d op %d: Invalidate(%#x) = %v, reference %v", gi, seed, op, addr, g, w)
							}
						default:
							c.Flush()
							ref.flush()
						}
					}
					if c.Accesses != ref.accesses || c.Misses != ref.misses {
						t.Fatalf("geom %d seed %d: stats (%d,%d), reference (%d,%d)",
							gi, seed, c.Accesses, c.Misses, ref.accesses, ref.misses)
					}
					// Residency must agree both ways.
					for s := 0; s < ref.sets; s++ {
						for _, w := range ref.lines[s] {
							if w.valid && !c.Contains(w.tag*uint64(cfg.LineBytes)) {
								t.Fatalf("geom %d seed %d: line %#x in reference but not in Cache", gi, seed, w.tag*uint64(cfg.LineBytes))
							}
						}
					}
					// Taxonomy conservation: the four classes partition the
					// misses exactly.
					tx := c.Taxonomy()
					if sum := tx.Compulsory + tx.Capacity + tx.Conflict + tx.Coherence; sum != c.Misses {
						t.Fatalf("geom %d seed %d: taxonomy classes sum %d, misses %d (%+v)", gi, seed, sum, c.Misses, tx)
					}
				}
			}
		})
	}
}

// TestRRIPNotInclusive documents that the RRIP family, unlike true LRU,
// is not a stack algorithm: with the same set count, a cache with more
// ways does not always hold a superset of the smaller cache's lines —
// insertion at a distant RRPV plus whole-set aging can evict from the
// big cache a line the small one retains. The witness is per-access: an
// access where the small cache hits and the big cache misses, which the
// LRU inclusion property (TestLRUInclusionProperty) makes impossible.
// This is the negative counterpart of that test and the reason the LRU
// golden grids cannot be reused for RRIP policies — each policy needs
// its own reference battery.
func TestRRIPNotInclusive(t *testing.T) {
	const seeds, accesses = 20, 3000
	for _, policy := range nonLRUPolicies {
		t.Run(policy, func(t *testing.T) {
			witnesses := 0
			for seed := int64(0); seed < seeds; seed++ {
				r := rand.New(rand.NewSource(seed))
				small := mkPolCache(16*32*2, 32, 2, policy) // 16 sets, 2 ways
				big := mkPolCache(16*32*4, 32, 4, policy)   // 16 sets, 4 ways
				for i := 0; i < accesses; i++ {
					addr := uint64(r.Intn(256)) * 32
					sh, _, _ := small.Access(addr, false)
					bh, _, _ := big.Access(addr, false)
					if sh && !bh {
						witnesses++
					}
				}
			}
			if witnesses == 0 {
				t.Fatalf("no inclusion violation in %d seeds; %s unexpectedly behaves like a stack algorithm", seeds, policy)
			}
			t.Logf("%s: %d small-hit/big-miss witnesses (expected: RRIP is not a stack algorithm)", policy, witnesses)
		})
	}
	// Contrast: true LRU on the identical traces never produces such a
	// witness — the stack property holds access by access, not just in
	// the aggregate counts TestLRUInclusionProperty checks.
	t.Run("lru-control", func(t *testing.T) {
		for seed := int64(0); seed < seeds; seed++ {
			r := rand.New(rand.NewSource(seed))
			small := mkCache(16*32*2, 32, 2)
			big := mkCache(16*32*4, 32, 4)
			for i := 0; i < accesses; i++ {
				addr := uint64(r.Intn(256)) * 32
				sh, _, _ := small.Access(addr, false)
				bh, _, _ := big.Access(addr, false)
				if sh && !bh {
					t.Fatalf("seed %d access %d: LRU inclusion violated at %#x", seed, i, addr)
				}
			}
		}
	})
}

// TestPolicyMemoStaleAfterVictimReplacement mirrors
// TestMemoStaleAfterVictimReplacement for each Policy-seam policy: when a
// conflict fill evicts a line through Victim/Evict, neither Contains (via
// the way memo) nor a subsequent Access may claim the evicted line. The
// scenario is chosen so every RRIP variant picks the same victim: after
// A is promoted by a hit, B sits at its insertion RRPV and loses.
func TestPolicyMemoStaleAfterVictimReplacement(t *testing.T) {
	for _, policy := range nonLRUPolicies {
		t.Run(policy, func(t *testing.T) {
			c := mkPolCache(64, 32, 2, policy) // one set, two ways
			a, b, d := uint64(0), uint64(64), uint64(128)
			c.Access(a, false) // fill way 0
			c.Access(b, false) // fill way 1, memo -> b
			c.Access(a, false) // hit: A promoted to RRPV 0, memo -> a
			c.Access(d, false) // victim search must evict B; memo -> d
			if c.Contains(b) {
				t.Fatal("evicted line still visible")
			}
			if !c.Contains(a) || !c.Contains(d) {
				t.Fatal("resident lines missing")
			}
			if hit, _, _ := c.Access(b, false); hit {
				t.Fatal("stale memo: hit on evicted line")
			}
		})
	}
}

// TestPolicyMemoStaleAfterInvalidate mirrors TestMemoStaleAfterInvalidate
// per policy: Invalidate must clear both the way and its replacement
// metadata, so a refill starts from the insertion state rather than
// inheriting the dead line's RRPV.
func TestPolicyMemoStaleAfterInvalidate(t *testing.T) {
	for _, policy := range nonLRUPolicies {
		t.Run(policy, func(t *testing.T) {
			c := mkPolCache(1024, 32, 2, policy)
			const addr = 0x1040
			c.Access(addr, false)
			c.Access(addr, false) // memoized hit
			if !c.Invalidate(addr) {
				t.Fatal("Invalidate missed a present line")
			}
			if c.Contains(addr) {
				t.Fatal("stale memo: Contains sees an invalidated line")
			}
			if hit, _, _ := c.Access(addr, false); hit {
				t.Fatal("stale memo: Access hit an invalidated line")
			}
			if c.Accesses != 3 || c.Misses != 2 {
				t.Fatalf("counters: %d accesses, %d misses", c.Accesses, c.Misses)
			}
		})
	}
}

// TestPolicyContainsDoesNotTouchAges mirrors TestMemoContainsDoesNotTouchLRU
// for the Policy seam: Contains — both its memo fast path and its scan —
// must never call Touch. If it refreshed B's RRPV, B would survive the
// conflict fill below and A would be evicted instead.
func TestPolicyContainsDoesNotTouchAges(t *testing.T) {
	for _, policy := range nonLRUPolicies {
		t.Run(policy, func(t *testing.T) {
			c := mkPolCache(64, 32, 2, policy) // one set, two ways
			a, b, d := uint64(0), uint64(64), uint64(128)
			c.Access(a, false)
			c.Access(b, false)
			c.Access(a, false) // A at RRPV 0 (promoted), B at insertion RRPV; memo -> a
			for i := 0; i < 4; i++ {
				if !c.Contains(b) { // scan path; must not promote B
					t.Fatal("resident line not found")
				}
				if !c.Contains(a) { // memo fast path; must not promote A
					t.Fatal("resident line not found")
				}
			}
			c.Access(d, false) // must evict B (still at insertion RRPV), not A
			if c.Contains(b) {
				t.Fatal("Contains refreshed RRIP age: wrong victim evicted")
			}
			if !c.Contains(a) {
				t.Fatal("Contains refreshed RRIP age: promoted line evicted")
			}
		})
	}
}

// TestPolicyRegistry pins the policy name vocabulary: "" and "lru" select
// the built-in path (nil Policy), every other listed name constructs an
// implementation reporting its own name, and unknown names are rejected
// by NewPolicy and by cache construction.
func TestPolicyRegistry(t *testing.T) {
	for _, name := range []string{"", PolicyLRU} {
		p, err := NewPolicy(name)
		if err != nil || p != nil {
			t.Fatalf("NewPolicy(%q) = (%v, %v), want (nil, nil)", name, p, err)
		}
	}
	for _, name := range nonLRUPolicies {
		p, err := NewPolicy(name)
		if err != nil || p == nil {
			t.Fatalf("NewPolicy(%q) = (%v, %v)", name, p, err)
		}
		if p.Name() != name {
			t.Fatalf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := NewPolicy("mru"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := ValidPolicy("mru"); err == nil {
		t.Fatal("ValidPolicy accepted unknown name")
	}
	if c, err := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 32, Assoc: 2, Policy: "mru"}); err == nil || c != nil {
		t.Fatal("cache with unknown policy accepted")
	}
	// Every name PolicyNames advertises must construct.
	for _, name := range PolicyNames() {
		if err := ValidPolicy(name); err != nil {
			t.Fatalf("advertised policy %q invalid: %v", name, err)
		}
	}
}
