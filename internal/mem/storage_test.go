package mem

import (
	"runtime"
	"testing"
)

// allocated returns the bytes the function prepare returns allocates on
// the heap: the smallest TotalAlloc delta of three runs, each prepared
// afresh, so a stray runtime allocation during one run does not count.
// Allocation figures are host-independent, unlike timings.
func allocated(prepare func() func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < 3; i++ {
		f := prepare()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

// TestCacheStorageFollowsFilledSets pins the storage layout's memory
// contract (see Cache): a hierarchy costs little to build, filling k
// lines in k distinct chunks allocates at most k chunks, and a cache
// filled in every set costs at most 1.1 times the flat array of every
// way that every cache used to allocate up front.
func TestCacheStorageFollowsFilledSets(t *testing.T) {
	// Table 1: the out-of-order machine's and the in-order machine's data
	// hierarchies, each 2 MB in its L2.
	table1 := map[string]HierConfig{
		"ooo": {
			L1: CacheConfig{SizeBytes: 32 << 10, LineBytes: 32, Assoc: 2},
			L2: CacheConfig{SizeBytes: 2 << 20, LineBytes: 32, Assoc: 2},
		},
		"inorder": {
			L1: CacheConfig{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1},
			L2: CacheConfig{SizeBytes: 2 << 20, LineBytes: 32, Assoc: 4},
		},
	}
	for name, cfg := range table1 {
		for _, policy := range []string{PolicyLRU, "trrip"} {
			cfg.L1.Policy, cfg.L2.Policy = policy, policy
			got := allocated(func() func() {
				return func() {
					if _, err := NewHierarchy(cfg); err != nil {
						t.Fatal(err)
					}
				}
			})
			if got >= 64<<10 {
				t.Errorf("%s/%s: building the hierarchy allocated %d bytes, want under 64 KB", name, policy, got)
			}
		}
	}

	const wayBytes = 24 // tag, taxonomy memo, valid and dirty bits, replacement word
	for _, policy := range PolicyNames() {
		cfg := table1["ooo"].L2
		cfg.Policy = policy
		const k = 10
		var chunkBytes uint64
		got := allocated(func() func() {
			c := MustCache(cfg)
			chunkBytes = uint64(c.chunkSets * cfg.Assoc * wayBytes)
			return func() {
				for i := 0; i < k; i++ {
					// One line in each of k chunks, spread over the cache.
					set := i * len(c.chunks) / k * c.chunkSets
					c.Access(uint64(set)*uint64(cfg.LineBytes), false)
				}
			}
		})
		if got > k*chunkBytes {
			t.Errorf("%s: filling %d lines in %d chunks allocated %d bytes, want at most %d chunks (%d bytes)",
				policy, k, k, got, k, k*chunkBytes)
		}

		flat := uint64(cfg.Sets() * cfg.Assoc * wayBytes)
		got = allocated(func() func() {
			return func() {
				c := MustCache(cfg)
				for s := 0; s < cfg.Sets(); s++ {
					c.Access(uint64(s)*uint64(cfg.LineBytes), false)
				}
			}
		})
		if got*10 > flat*11 {
			t.Errorf("%s: building a cache and filling every set allocated %d bytes, want at most 1.1 x the flat %d",
				policy, got, flat)
		}
	}
}
