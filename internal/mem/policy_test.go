package mem

import (
	"math/rand"
	"testing"
)

// nonLRUPolicies are the Policy-seam implementations.
var nonLRUPolicies = PolicyNames()[1:]

func mkPolCache(size, line, assoc int, policy string) *Cache {
	return MustCache(CacheConfig{SizeBytes: size, LineBytes: line, Assoc: assoc, Policy: policy})
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

// The stale-memo tests below each run one scenario under every policy,
// LRU included: the way memo (DESIGN.md §10) must never outlive the line
// it names, and must never disturb replacement state.

// TestPolicyMemoStaleAfterVictimReplacement: when a conflict fill evicts
// the memoized line, the memo must retarget to the filled line, so
// neither Contains nor a later Access claims the evicted one. The cache
// is direct-mapped, so every policy evicts the memoized line.
func TestPolicyMemoStaleAfterVictimReplacement(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			c := mkPolCache(64, 32, 1, policy) // two sets, direct-mapped
			a, d := uint64(0), uint64(64)      // same set
			c.Access(a, false)                 // fill, memo -> a
			c.Access(a, false)                 // memoized hit
			c.Access(d, false)                 // evicts A; memo -> d
			if c.Contains(a) {
				t.Fatal("stale memo: evicted line still visible")
			}
			if !c.Contains(d) {
				t.Fatal("filled line missing")
			}
			if hit, _, _ := c.Access(a, false); hit {
				t.Fatal("stale memo: hit on evicted line")
			}
		})
	}
}

// TestPolicyMemoStaleAfterInvalidate: after an Access primes the way
// memo, Invalidate must report the line present and clear the memo, so
// Contains and Access cannot claim a stale hit.
func TestPolicyMemoStaleAfterInvalidate(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			c := mkPolCache(1024, 32, 2, policy)
			const addr = 0x1040
			c.Access(addr, false) // miss, fills and primes the memo
			c.Access(addr, false) // memoized hit
			if !c.Contains(addr) {
				t.Fatal("line absent after fill")
			}
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

// TestMemoStaleAfterFlush: Flush must drop the memo along with every
// line.
func TestMemoStaleAfterFlush(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			c := mkPolCache(1024, 32, 2, policy)
			const addr = 0x2000
			c.Access(addr, true)
			c.Access(addr, true) // memoized hit
			c.Flush()
			if c.Contains(addr) {
				t.Fatal("stale memo: Contains sees a flushed line")
			}
			if hit, _, _ := c.Access(addr, false); hit {
				t.Fatal("stale memo: Access hit a flushed line")
			}
		})
	}
}

// TestPolicyContainsDoesNotTouchAges: Contains — its memo fast path and
// its scan — must not refresh an LRU stamp or an RRIP age. B is the
// least recently used line and sits at its insertion RRPV; if Contains
// refreshed it, B would survive the conflict fill below and A would be
// evicted instead.
func TestPolicyContainsDoesNotTouchAges(t *testing.T) {
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			c := mkPolCache(64, 32, 2, policy) // one set, two ways
			a, b, d := uint64(0), uint64(64), uint64(128)
			c.Access(a, false)
			c.Access(b, false)
			c.Access(a, false) // A most recent, RRPV 0; memo -> a
			for i := 0; i < 4; i++ {
				if !c.Contains(b) { // scan path; must not refresh B
					t.Fatal("resident line not found")
				}
				if !c.Contains(a) { // memo fast path
					t.Fatal("resident line not found")
				}
			}
			c.Access(d, false) // must evict B, not A
			if c.Contains(b) {
				t.Fatal("Contains refreshed replacement state: wrong victim evicted")
			}
			if !c.Contains(a) {
				t.Fatal("Contains refreshed replacement state: most recent line evicted")
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
