package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the one independent, deliberately naive model of the
// documented Cache semantics, under every replacement policy: a per-set
// linear scan over small per-way records, write-allocate, and a miss
// fills the first invalid way before any policy is asked for a victim.
// True LRU is one of its four policies: a full set evicts the way
// referenced longest ago (lowest index on a tie). The RRIP family
// (DESIGN.md §17) inserts, promotes and ages as documented and evicts the
// first way at distant RRPV 3. It has no way memo and no packed metadata,
// so the differential tests that replay identical operation traces
// through Cache and refCache pin the memo fast paths (DESIGN.md §10) and
// the Policy seam to the documented semantics bit for bit.
type refCache struct {
	lineBytes uint64
	policy    string
	lines     [][]refWay // [set][way]
	clock     uint64     // lru: references so far

	fills uint64           // brrip: deterministic bimodal counter
	temp  map[uint64]uint8 // trrip: evicted tag -> hot/cold
	ring  []uint64         // trrip: FIFO bounding temp
	next  int

	accesses, misses uint64
}

type refWay struct {
	tag          uint64
	valid, dirty bool
	used         uint64 // lru: clock of the last reference
	rrpv         int    // rrip: re-reference prediction value
	reused       bool   // rrip: hit since fill
}

func newRefCache(cfg CacheConfig) *refCache {
	r := &refCache{lineBytes: uint64(cfg.LineBytes), policy: cfg.Policy, temp: map[uint64]uint8{}}
	if r.policy == "" {
		r.policy = PolicyLRU
	}
	r.lines = make([][]refWay, cfg.Sets())
	for i := range r.lines {
		r.lines[i] = make([]refWay, cfg.Assoc)
	}
	return r
}

// find returns addr's set and the index of the valid way holding its
// line there, or -1.
func (r *refCache) find(addr uint64) ([]refWay, int) {
	tag := addr / r.lineBytes
	set := r.lines[tag%uint64(len(r.lines))]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return set, i
		}
	}
	return set, -1
}

func (r *refCache) access(addr uint64, write bool) (hit bool, writeback uint64, wb bool) {
	r.accesses++
	r.clock++
	set, i := r.find(addr)
	if i >= 0 {
		w := &set[i]
		w.used, w.rrpv, w.reused = r.clock, 0, true
		w.dirty = w.dirty || write
		return true, 0, false
	}
	r.misses++
	w := &set[r.victim(set)]
	if w.valid {
		r.evict(*w)
		if w.dirty {
			writeback, wb = w.tag*r.lineBytes, true
		}
	}
	tag := addr / r.lineBytes
	*w = refWay{tag: tag, valid: true, dirty: write, used: r.clock, rrpv: r.insertRRPV(tag)}
	return false, writeback, wb
}

// victim picks the way a miss fills: the first invalid way, else the
// policy's choice in the full set.
func (r *refCache) victim(set []refWay) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	if r.policy == PolicyLRU {
		v := 0
		for i := range set {
			if set[i].used < set[v].used {
				v = i
			}
		}
		return v
	}
	// RRIP: the first way at distant RRPV 3, aging the whole set by one
	// until such a way exists.
	for {
		for i := range set {
			if set[i].rrpv == 3 {
				return i
			}
		}
		for i := range set {
			set[i].rrpv++
		}
	}
}

// insertRRPV applies the policy's insertion rule for a fill of tag (LRU
// keeps no RRPV).
func (r *refCache) insertRRPV(tag uint64) int {
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
	return 0
}

// evict observes a valid victim's eviction: TRRIP records its
// temperature in a history bounded to the last 1024 evicted tags.
func (r *refCache) evict(w refWay) {
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

func (r *refCache) contains(addr uint64) bool {
	_, i := r.find(addr)
	return i >= 0
}

func (r *refCache) invalidate(addr uint64) bool {
	set, i := r.find(addr)
	if i < 0 {
		return false
	}
	set[i] = refWay{}
	return true
}

// flush clears every line. The brrip fill counter and the trrip history
// survive, mirroring Cache.Flush, which resets per-way metadata but not
// the policy object.
func (r *refCache) flush() {
	for _, set := range r.lines {
		clear(set)
	}
}

// TestMemoizedCacheMatchesReference runs the differential battery of
// checkCacheMatchesReference under LRU.
func TestMemoizedCacheMatchesReference(t *testing.T) {
	checkCacheMatchesReference(t, PolicyNames()[0])
}

// TestPolicyCacheMatchesReference runs the same battery under each of
// the other policies.
func TestPolicyCacheMatchesReference(t *testing.T) {
	for _, policy := range nonLRUPolicies {
		t.Run(policy, func(t *testing.T) { checkCacheMatchesReference(t, policy) })
	}
}

// checkCacheMatchesReference is the differential battery: for one
// policy, 8 seeded random traces of Access / Contains /
// Invalidate / Flush per geometry row, replayed through Cache and
// refCache with every per-operation result compared, then the
// statistics and every way's tag, valid and dirty bits. A quarter of the
// references repeat the previous address, so the way memo, its
// retargeting on fill and the mutations that must clear it are all
// exercised heavily. The miss taxonomy is enabled on the Cache side
// throughout — it must be observation-only, so its presence cannot
// perturb any outcome — and its four classes must sum exactly to the
// misses since it was last enabled. Halfway through each trace the whole
// state, and the taxonomy's sum over every miss so far, cold start
// included, is checked; then the taxonomy is enabled a second time on
// the used cache: the ways keep taxonomy memos naming nodes of the
// replaced classifier, and no hit may follow one.
// After the trace, every set is probed with Contains and Invalidate of a
// line the trace never drew, so sets whose storage was never allocated
// answer alongside the filled ones.
//
// The first five rows draw from 64 random addresses, so hits, promotion
// and aging all engage; they run from direct-mapped to a single 16-way
// set. The sixth draws from more than four times TRRIP's 1024-tag
// history in distinct lines through a cache small enough that nearly
// every miss evicts, even between flushes, so the history fills and
// forgets its oldest tags over and over. The storage rows (see Cache)
// follow: a 256 KB cache whose 64 addresses leave most of its chunks
// unallocated; a 64 KB cache whose pool fills every set; a 3-way cache,
// whose chunks hold 16 sets and 48 ways; and a 128-way cache, whose
// sets are larger than chunkWays. Half the draws of every row with a
// line pool come from a warm subset whose refills consult the TRRIP
// history before it forgets them.
func checkCacheMatchesReference(t *testing.T, policy string) {
	rows := []struct {
		geom  CacheConfig
		lines int // distinct lines in the address pool (0: 64 random addresses)
	}{
		{CacheConfig{SizeBytes: 512, LineBytes: 32, Assoc: 1}, 0},
		{CacheConfig{SizeBytes: 1024, LineBytes: 32, Assoc: 2}, 0},
		{CacheConfig{SizeBytes: 2048, LineBytes: 64, Assoc: 4}, 0},
		{CacheConfig{SizeBytes: 4096, LineBytes: 64, Assoc: 4}, 0},
		{CacheConfig{SizeBytes: 256, LineBytes: 16, Assoc: 16}, 0},
		{CacheConfig{SizeBytes: 512, LineBytes: 64, Assoc: 2}, 5000},
		{CacheConfig{SizeBytes: 256 << 10, LineBytes: 32, Assoc: 2}, 0},
		{CacheConfig{SizeBytes: 64 << 10, LineBytes: 32, Assoc: 4}, 5000},
		{CacheConfig{SizeBytes: 3 * 32 << 8, LineBytes: 32, Assoc: 3}, 2000},
		{CacheConfig{SizeBytes: 128 * 16 * 4, LineBytes: 16, Assoc: 128}, 1000},
	}
	for gi, row := range rows {
		for seed := int64(0); seed < 8; seed++ {
			cfg := row.geom
			cfg.Policy = policy
			rng := rand.New(rand.NewSource(7000 + 100*int64(gi) + seed))
			c := MustCache(cfg)
			c.EnableTaxonomy()
			ref := newRefCache(cfg)
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
			var last, taxBase uint64
			for op := 0; op < 12000; op++ {
				if op == 6000 {
					if d := diffState(c, ref, 0); d != "" {
						t.Fatalf("geom %d seed %d, first half: %s", gi, seed, d)
					}
					stepBoth(c, ref, opRetax, 0)
					taxBase = c.Misses
				}
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
				var kind int
				switch k := rng.Intn(100); {
				case k < 70:
					kind = opRead
					if rng.Intn(3) == 0 {
						kind = opWrite
					}
				case k < 85:
					kind = opContains
				case k < 98:
					kind = opInvalidate
				default:
					kind = opFlush
				}
				if d := stepBoth(c, ref, kind, addr); d != "" {
					t.Fatalf("geom %d seed %d op %d: %s", gi, seed, op, d)
				}
			}
			for s := 0; s < cfg.Sets(); s++ {
				addr := (uint64(rng.Int63n(1<<40))*uint64(cfg.Sets()) + uint64(s)) * uint64(cfg.LineBytes)
				for _, kind := range []int{opContains, opInvalidate} {
					if d := stepBoth(c, ref, kind, addr); d != "" {
						t.Fatalf("geom %d seed %d, set %d probe: %s", gi, seed, s, d)
					}
				}
			}
			if d := diffState(c, ref, taxBase); d != "" {
				t.Fatalf("geom %d seed %d: %s", gi, seed, d)
			}
		}
	}
}

// The operations stepBoth applies.
const (
	opRead = iota
	opWrite
	opContains
	opInvalidate
	opFlush
	opRetax // EnableTaxonomy again on the used Cache; refCache has none
	numOps
)

// stepBoth applies one operation to c and ref and describes the first
// difference between their results, or returns "".
func stepBoth(c *Cache, ref *refCache, op int, addr uint64) string {
	switch op {
	case opRead, opWrite:
		write := op == opWrite
		gh, gwb, gok := c.Access(addr, write)
		wh, wwb, wok := ref.access(addr, write)
		if gh != wh || gwb != wwb || gok != wok {
			return fmt.Sprintf("Access(%#x,%v) = (%v,%#x,%v), reference (%v,%#x,%v)",
				addr, write, gh, gwb, gok, wh, wwb, wok)
		}
	case opContains:
		if g, w := c.Contains(addr), ref.contains(addr); g != w {
			return fmt.Sprintf("Contains(%#x) = %v, reference %v", addr, g, w)
		}
	case opInvalidate:
		if g, w := c.Invalidate(addr), ref.invalidate(addr); g != w {
			return fmt.Sprintf("Invalidate(%#x) = %v, reference %v", addr, g, w)
		}
	case opFlush:
		c.Flush()
		ref.flush()
	case opRetax:
		c.EnableTaxonomy()
	}
	return ""
}

// diffState compares the statistics and every way's tag, valid and dirty
// bits, and checks that the taxonomy's classes sum to the misses since
// c's Misses was taxBase. It describes the first difference, or returns
// "".
func diffState(c *Cache, ref *refCache, taxBase uint64) string {
	if c.Accesses != ref.accesses || c.Misses != ref.misses {
		return fmt.Sprintf("stats (%d,%d), reference (%d,%d)", c.Accesses, c.Misses, ref.accesses, ref.misses)
	}
	for s, set := range ref.lines {
		for i, w := range set {
			g := c.wayAt(s, i)
			if g.valid != w.valid || w.valid && (g.tag != w.tag || g.dirty != w.dirty) {
				return fmt.Sprintf("set %d way %d holds (valid %v, tag %#x, dirty %v), reference (%v, %#x, %v)",
					s, i, g.valid, g.tag, g.dirty, w.valid, w.tag, w.dirty)
			}
		}
	}
	tx := c.Taxonomy()
	if sum := tx.Compulsory + tx.Capacity + tx.Conflict + tx.Coherence; sum != c.Misses-taxBase {
		return fmt.Sprintf("taxonomy classes sum %d, misses since enabled %d (%+v)", sum, c.Misses-taxBase, tx)
	}
	return ""
}

// fuzzGeoms are the geometries FuzzCacheMatchesReference draws from: the
// battery's small and odd rows (direct-mapped, 3-way, sets larger than a
// chunk) and a 64 KB cache of 32 chunks.
var fuzzGeoms = []CacheConfig{
	{SizeBytes: 512, LineBytes: 32, Assoc: 1},
	{SizeBytes: 2048, LineBytes: 64, Assoc: 4},
	{SizeBytes: 256, LineBytes: 16, Assoc: 16},
	{SizeBytes: 3 * 32 << 8, LineBytes: 32, Assoc: 3},
	{SizeBytes: 128 * 16 * 4, LineBytes: 16, Assoc: 128},
	{SizeBytes: 64 << 10, LineBytes: 32, Assoc: 2},
}

// FuzzCacheMatchesReference maps its input to a geometry of fuzzGeoms
// (byte 0), a policy (byte 1) and an operation stream (three bytes per
// operation: the kind in the low bits of the first, a byte offset in its
// high nibble, and a 16-bit line number), replays the stream through a
// taxonomy-enabled Cache and through refCache, and compares every
// operation's result and the statistics after it, then the final state
// of every way.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{5, 0, opRead, 0, 1, opWrite, 4, 1, opRead, 0, 1, opInvalidate, 0, 1, opContains, 0, 1})
	f.Add([]byte{3, 3, opRead, 0, 0, opRead, 1, 0, opRead, 2, 0, opRetax, 0, 0, opRead, 1, 0, opFlush, 0, 0, opRead, 1, 0})
	f.Add([]byte{4, 1, opWrite, 0, 0, opWrite, 0, 4, opContains, 0, 8, opInvalidate, 0, 12, opRead, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := fuzzGeoms[int(data[0])%len(fuzzGeoms)]
		cfg.Policy = PolicyNames()[int(data[1])%len(PolicyNames())]
		c := MustCache(cfg)
		c.EnableTaxonomy()
		ref := newRefCache(cfg)
		var taxBase uint64
		for ops := data[2:]; len(ops) >= 3; ops = ops[3:] {
			kind := int(ops[0]&0x0f) % numOps
			addr := (uint64(ops[1])<<8|uint64(ops[2]))*uint64(cfg.LineBytes) + uint64(ops[0]>>4)%uint64(cfg.LineBytes)
			if kind == opRetax {
				if d := diffState(c, ref, taxBase); d != "" {
					t.Fatalf("%+v, before EnableTaxonomy: %s", cfg, d)
				}
			}
			if d := stepBoth(c, ref, kind, addr); d != "" {
				t.Fatalf("%+v: %s", cfg, d)
			}
			if kind == opRetax {
				taxBase = c.Misses
			}
			if c.Accesses != ref.accesses || c.Misses != ref.misses {
				t.Fatalf("%+v: stats (%d,%d), reference (%d,%d)", cfg, c.Accesses, c.Misses, ref.accesses, ref.misses)
			}
		}
		if d := diffState(c, ref, taxBase); d != "" {
			t.Fatalf("%+v: %s", cfg, d)
		}
	})
}

// TestHierarchyMemoMatchesReference replays random reference streams
// (with interleaved L1 invalidations and flushes, as the FlushEvery and
// §3.3 squash paths produce) through Hierarchy.ProbeData and through an
// un-memoized two-cache reference, requiring identical level outcomes
// and counters.
func TestHierarchyMemoMatchesReference(t *testing.T) {
	cfg := HierConfig{
		L1: CacheConfig{SizeBytes: 1 << 10, LineBytes: 32, Assoc: 2},
		L2: CacheConfig{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 4},
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref1 := newRefCache(cfg.L1)
	ref2 := newRefCache(cfg.L2)
	rng := rand.New(rand.NewSource(42))
	var last uint64
	for op := 0; op < 30000; op++ {
		addr := uint64(rng.Intn(64 << 10))
		if rng.Intn(3) == 0 {
			addr = last
		}
		last = addr
		switch k := rng.Intn(100); {
		case k < 90:
			write := rng.Intn(4) == 0
			lvl := h.ProbeData(addr, write)
			want := 3
			if hit, _, _ := ref1.access(addr, write); hit {
				want = 1
			} else if hit, _, _ := ref2.access(addr, write); hit {
				want = 2
			}
			if lvl != want {
				t.Fatalf("op %d: ProbeData(%#x,%v) = %d, reference %d", op, addr, write, lvl, want)
			}
		case k < 98:
			if g, w := h.SpeculativeInvalidate(addr), ref1.invalidate(addr); g != w {
				t.Fatalf("op %d: SpeculativeInvalidate(%#x) = %v, reference %v", op, addr, g, w)
			}
		default:
			h.L1.Flush()
			ref1.flush()
		}
	}
	if h.L1.Accesses != ref1.accesses || h.L1.Misses != ref1.misses {
		t.Fatalf("L1 stats (%d,%d), reference (%d,%d)",
			h.L1.Accesses, h.L1.Misses, ref1.accesses, ref1.misses)
	}
	if h.L2.Accesses != ref2.accesses || h.L2.Misses != ref2.misses {
		t.Fatalf("L2 stats (%d,%d), reference (%d,%d)",
			h.L2.Accesses, h.L2.Misses, ref2.accesses, ref2.misses)
	}
}

// wayAt returns way i of set s, the zero (invalid) way when the set's
// chunk was never allocated.
func (c *Cache) wayAt(s, i int) way {
	if set := c.set(uint64(s)); set != nil {
		return set[i]
	}
	return way{}
}
