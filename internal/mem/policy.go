package mem

import "fmt"

// Policy is the replacement-policy seam (DESIGN.md §17). A Cache built
// with a named non-LRU policy routes every hit, fill and victim decision
// through these hooks; the default true-LRU replacement stays on the
// historical inline path (bit-identical to the pre-seam cache) and never
// sees a Policy call.
//
// The hooks operate on per-way metadata words: each way of the cache
// carries one (way.meta, the word true LRU uses for its stamp), so the
// implementations live in this package. The cache owns the words and
// guarantees:
//
//   - a way's word is zero on construction and after any invalidation of
//     the way;
//   - Touch is called on every hit (including memoized hits) with the
//     hitting way's word — and never from Contains, which must not
//     disturb replacement state;
//   - Fill is called after the victim's way has been loaded with the new
//     tag (the cache fills the first invalid way itself; Victim is
//     consulted only when the set is full, with the set's ways in way
//     order);
//   - Evict is called just before a valid victim is overwritten, with the
//     evicted tag and its final metadata word, so history-keeping
//     policies (TRRIP) can record the line's fate.
type Policy interface {
	// Name returns the registry name the policy was built under.
	Name() string
	// Touch records a hit on the way whose word is m.
	Touch(m *uint64)
	// Fill initialises the word m of a way newly filled with tag.
	Fill(m *uint64, tag uint64)
	// Victim picks the way to replace in a full set, and may age the
	// set's words doing so.
	Victim(set []way) int
	// Evict observes the eviction of tag whose final metadata was m.
	Evict(tag uint64, m uint64)
}

// PolicyLRU is the default replacement policy name; it (and the empty
// string) select the built-in true-LRU fast path rather than a Policy
// implementation.
const PolicyLRU = "lru"

// PolicyNames lists the valid CacheConfig.Policy values, default first.
func PolicyNames() []string { return []string{PolicyLRU, "srrip", "brrip", "trrip"} }

// NewPolicy resolves a replacement-policy name. The empty string and
// "lru" return nil: the built-in true-LRU path needs no Policy object.
// Unknown names are an error (the library panic-to-error policy).
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "", PolicyLRU:
		return nil, nil
	case "srrip":
		return &srrip{}, nil
	case "brrip":
		return &brrip{}, nil
	case "trrip":
		return newTRRIP(), nil
	}
	return nil, fmt.Errorf("mem: unknown replacement policy %q (have %v)", name, PolicyNames())
}

// ValidPolicy reports whether name resolves (request validation in
// internal/serve and the CLIs, without constructing state).
func ValidPolicy(name string) error {
	_, err := NewPolicy(name)
	return err
}

// RRIP metadata layout (shared by srrip/brrip/trrip): bits 0..1 hold the
// 2-bit re-reference prediction value (RRPV; 0 = imminent, 3 = distant),
// bit 2 is the reuse bit — set on the first hit after fill, read at
// eviction by the temperature-informed variant.
const (
	rrpvMask   = 0b11
	rrpvMax    = 3
	reuseBit   = 1 << 2
	rrpvLong   = 2 // SRRIP insertion: long re-reference interval
	rrpvDist   = 3 // BRRIP common insertion: distant
	rrpvNear   = 1 // TRRIP hot insertion: near-imminent
	brripEvery = 32
)

// srrip is Static RRIP (SRRIP-HP): insert at RRPV 2, promote to 0 on
// hit, evict the first way (lowest index) at RRPV 3, aging the whole set
// until one exists.
type srrip struct{}

func (*srrip) Name() string { return "srrip" }

func (*srrip) Touch(m *uint64) { *m = reuseBit } // RRPV 0 + reused

func (*srrip) Fill(m *uint64, tag uint64) { *m = rrpvLong }

func (*srrip) Victim(set []way) int { return rripVictim(set) }

func (*srrip) Evict(tag uint64, m uint64) {}

// rripVictim scans for the first way at maximum RRPV, aging every way by
// one until such a way exists. Terminates: each aging pass strictly
// increases the set's maximum RRPV toward rrpvMax.
func rripVictim(set []way) int {
	for {
		for i := range set {
			if set[i].meta&rrpvMask == rrpvMax {
				return i
			}
		}
		for i := range set {
			set[i].meta++ // low bits only ever reach rrpvMax before returning
		}
	}
}

// brrip is Bimodal RRIP: like SRRIP but inserting at distant RRPV 3,
// except every 32nd fill which inserts at 2. The "bimodal" choice is a
// deterministic fill counter rather than a random draw so runs are
// reproducible (the repository-wide determinism contract).
type brrip struct {
	fills uint64
}

func (*brrip) Name() string { return "brrip" }

func (*brrip) Touch(m *uint64) { *m = reuseBit }

func (b *brrip) Fill(m *uint64, tag uint64) {
	b.fills++
	if b.fills%brripEvery == 0 {
		*m = rrpvLong
	} else {
		*m = rrpvDist
	}
}

func (*brrip) Victim(set []way) int { return rripVictim(set) }

func (*brrip) Evict(tag uint64, m uint64) {}

// trrip is the TRRIP-style temperature-informed RRIP variant (PAPERS.md):
// a bounded filter remembers recently evicted tags together with whether
// the line was reused during its residency. Refills of tags that proved
// hot (reused before eviction) insert near-imminent (RRPV 1); refills of
// tags that proved cold insert distant (RRPV 3); unknown tags take the
// SRRIP default (RRPV 2).
//
// The filter is a fixed open-addressed table (linear probing, keys tag+1,
// 0 = empty) of twice the history's size, so it is at most half full; a
// FIFO ring of the remembered tags bounds it, and the tag the ring
// forgets leaves the table by backward-shift deletion, which keeps every
// probe run unbroken without tombstones. The table and the ring are
// allocated at the first eviction; until then every tag is unknown, so a
// cache whose sets never fill up pays nothing for them.
type trrip struct {
	keys  []uint64 // trripSlots entries once allocated
	temps []uint8  // tempHot/tempCold, parallel to keys; 0 when empty
	ring  []uint64 // FIFO of remembered tags, bounding the table
	next  int
}

const (
	trripHistory = 1024
	trripSlots   = 2 * trripHistory
	trripMask    = trripSlots - 1
	tempCold     = 1
	tempHot      = 2
)

func newTRRIP() *trrip { return &trrip{} }

func (*trrip) Name() string { return "trrip" }

func (*trrip) Touch(m *uint64) { *m = reuseBit }

func (t *trrip) Fill(m *uint64, tag uint64) {
	var temp uint8 // unknown, as an empty slot's temperature is
	if t.keys != nil {
		i, _ := t.slot(tag)
		temp = t.temps[i]
	}
	switch temp {
	case tempHot:
		*m = rrpvNear
	case tempCold:
		*m = rrpvDist
	default:
		*m = rrpvLong
	}
}

func (*trrip) Victim(set []way) int { return rripVictim(set) }

func (t *trrip) Evict(tag uint64, m uint64) {
	temp := uint8(tempCold)
	if m&reuseBit != 0 {
		temp = tempHot
	}
	if t.keys == nil {
		t.keys, t.temps = make([]uint64, trripSlots), make([]uint8, trripSlots)
		t.ring = make([]uint64, 0, trripHistory)
	}
	i, known := t.slot(tag)
	if !known {
		if len(t.ring) < trripHistory {
			t.ring = append(t.ring, tag)
		} else {
			t.forget(t.ring[t.next])
			t.ring[t.next] = tag
			t.next = (t.next + 1) % trripHistory
			i, _ = t.slot(tag) // the deletion may have shifted tag's slot
		}
		t.keys[i] = tag + 1
	}
	t.temps[i] = temp
}

// slot returns the index of tag's slot and true, or the index of the
// empty slot where it would go and false.
func (t *trrip) slot(tag uint64) (uint64, bool) {
	k := tag + 1
	for i := tagHome(tag, trripMask); ; i = (i + 1) & trripMask {
		switch t.keys[i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// forget deletes a remembered tag, shifting each later entry of its
// probe run back into the hole when the hole lies between that entry's
// home slot and its current slot.
func (t *trrip) forget(tag uint64) {
	hole, _ := t.slot(tag)
	for j := (hole + 1) & trripMask; t.keys[j] != 0; j = (j + 1) & trripMask {
		home := tagHome(t.keys[j]-1, trripMask)
		if (j-hole)&trripMask <= (j-home)&trripMask {
			t.keys[hole], t.temps[hole] = t.keys[j], t.temps[j]
			hole = j
		}
	}
	t.keys[hole], t.temps[hole] = 0, 0
}
