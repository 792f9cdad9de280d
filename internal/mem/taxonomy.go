package mem

import "informing/internal/stats"

// Taxonomy is the online miss classifier (DESIGN.md §17): attached to a
// Cache it observes every access and classifies each miss, at fill time,
// as exactly one of compulsory / coherence / conflict / capacity — so the
// four classes always sum to the cache's Misses counter.
//
// Two side models drive the classification:
//
//   - an infinite seen filter: every line tag the cache has ever missed
//     on. A miss on a never-seen tag is compulsory. The filter also
//     carries the coherence mark: a tag whose resident line was removed
//     by InvalidateCoherence classifies its next miss as a coherence
//     miss.
//   - a fully-associative shadow of the same capacity (line count) as the
//     cache, with true-LRU replacement. A non-compulsory, non-coherence
//     miss that hits in the shadow would have hit in a fully-associative
//     cache — a conflict miss; one that misses even there is a capacity
//     miss.
//
// The shadow is a pure recency model: architectural invalidations do not
// erase recency (a speculatively squashed line re-fetched soon after
// still classifies by how recently it was referenced), and a Flush
// (context switch) empties the shadow alongside the cache, so post-flush
// re-references classify as capacity, not conflict.
//
// The classifier is observation-only — it never influences hit/miss
// outcomes, replacement state or the way memo — so enabling it leaves
// the cache's architectural behaviour bit-identical.
//
// It is also on the simulator's hottest path (the hierarchy enables it
// on both data levels of every run), so both side models live in one
// open-addressed tag table: each entry holds a tag's seen bit, its
// coherence mark and its shadow node, so a miss classifies and finds its
// shadow node with one probe. Entries are never deleted; the table
// doubles at 3/4 load. The shadow's node pool grows on demand up to the
// line count and then recycles its LRU node; an entry whose node has
// been recycled to another tag (or dropped by a flush) reads as absent
// from the shadow, so no entry ever needs updating when its node moves
// on. The dominant operation — refreshing shadow recency on a cache hit
// — usually skips the table via the way's ref, a memo of the shadow node
// last associated with that cache way, validated against the node's tag
// before use. The ref lives in the way's padding (see Cache), so it costs
// no memory of its own and exists only for ways a run has filled. Both
// structures start small (the table at 256 entries, 4 KB) and grow by
// amortized doubling, so the steady-state hot path is allocation-free and
// a short replay pays only for the lines it touches.
type Taxonomy struct {
	Classes stats.MissClasses

	// Tag table: open-addressed, linear probing, keyed by tag+1 (0 =
	// empty slot).
	tab  []tagEntry
	live int

	// Fully-associative shadow: an intrusive LRU list over nodes, which
	// grows to lines entries and then recycles its tail.
	nodes      []shadowNode
	lines      int
	head, tail int32 // MRU, LRU (-1 when empty)
	mru        uint64
	mruOK      bool
}

type tagEntry struct {
	key   uint64 // tag+1; 0 = empty
	node  int32  // shadow node+1; 0 = none
	flags uint32
}

const (
	seenBit = 1 << 0 // the tag has missed: its next miss is not compulsory
	cohMark = 1 << 1 // evicted by a coherence invalidation
)

// tagHashC is the multiplicative-hash constant (2^64 / golden ratio);
// tables index with the product's high bits, so power-of-two table sizes
// stay well mixed.
const tagHashC = 0x9E3779B97F4A7C15

// tagHome is tag's first probe slot in a power-of-two table of mask+1
// slots.
func tagHome(tag, mask uint64) uint64 { return (tag * tagHashC) >> 33 & mask }

type shadowNode struct {
	tag        uint64
	prev, next int32
}

// newTaxonomy builds a classifier whose shadow holds lines total lines
// (the attached cache's capacity in lines).
func newTaxonomy(lines int) *Taxonomy {
	return &Taxonomy{
		tab:   make([]tagEntry, 1<<8),
		lines: lines,
		head:  -1,
		tail:  -1,
	}
}

// hit records a cache hit on the way whose ref is ref: the shadow's
// recency is refreshed. The MRU memo makes the dominant same-line
// re-reference a single compare; the way's ref (node+1 of the shadow
// node last associated with the way, 0 = none) makes most other hits a
// tag check plus a list splice, no table probe. A ref is always below
// len(nodes)+1: a flush empties every way along with the pool, and
// EnableTaxonomy clears every ref it replaces the classifier under.
func (t *Taxonomy) hit(tag uint64, ref *int32) {
	if t.mruOK && t.mru == tag {
		return
	}
	if r := *ref - 1; r >= 0 && t.nodes[r].tag == tag {
		t.mru, t.mruOK = tag, true
		if t.head != r {
			t.moveToHead(r)
		}
		return
	}
	t.touch(t.entry(tag), tag, ref)
}

// miss classifies and records a cache miss on tag filling the way whose
// ref is ref, then refreshes the shadow with the reference.
// Classification priority: compulsory (never seen) > coherence (marked by
// InvalidateCoherence) > conflict (shadow holds the line) > capacity.
func (t *Taxonomy) miss(tag uint64, ref *int32) {
	e := t.entry(tag)
	switch {
	case e.flags&seenBit == 0:
		t.Classes.Compulsory++
		e.flags = seenBit
	case e.flags&cohMark != 0:
		t.Classes.Coherence++
		e.flags = seenBit
	case t.inShadow(e, tag):
		t.Classes.Conflict++
	default:
		t.Classes.Capacity++
	}
	t.touch(e, tag, ref)
}

// markCoherence flags tag so its next miss classifies as a coherence
// miss. Called only for tags whose line a coherence action just removed.
func (t *Taxonomy) markCoherence(tag uint64) {
	t.entry(tag).flags = seenBit | cohMark
}

// entry returns tag's table entry, inserting an empty one (not seen, no
// node) when the tag has none. The pointer is valid until the next
// insertion.
func (t *Taxonomy) entry(tag uint64) *tagEntry {
	if 4*(t.live+1) > 3*len(t.tab) {
		t.grow()
	}
	mask := uint64(len(t.tab) - 1)
	k := tag + 1
	for i := tagHome(tag, mask); ; i = (i + 1) & mask {
		e := &t.tab[i]
		if e.key == k {
			return e
		}
		if e.key == 0 {
			e.key = k
			t.live++
			return e
		}
	}
}

func (t *Taxonomy) grow() {
	old := t.tab
	t.tab = make([]tagEntry, 2*len(old))
	mask := uint64(len(t.tab) - 1)
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := tagHome(e.key-1, mask)
		for t.tab[i].key != 0 {
			i = (i + 1) & mask
		}
		t.tab[i] = e
	}
}

// inShadow reports whether e's node still holds tag: a node recycled to
// another tag, or dropped by a flush, reads as absent.
func (t *Taxonomy) inShadow(e *tagEntry, tag uint64) bool {
	n := int(e.node) - 1
	return n >= 0 && n < len(t.nodes) && t.nodes[n].tag == tag
}

// touch moves tag (whose entry is e) to the shadow's MRU position,
// inserting it when absent — into a new node while the pool is below the
// line count, else into the recycled LRU node — and re-aims the way's
// ref.
func (t *Taxonomy) touch(e *tagEntry, tag uint64, ref *int32) {
	t.mru, t.mruOK = tag, true
	if t.inShadow(e, tag) {
		n := e.node - 1
		if t.head != n {
			t.moveToHead(n)
		}
		*ref = e.node
		return
	}
	var n int32
	if len(t.nodes) < t.lines {
		n = int32(len(t.nodes))
		t.nodes = append(t.nodes, shadowNode{tag: tag})
	} else {
		// Shadow full: recycle the LRU node. The evicted tag's entry
		// still names it, and reads as absent by the tag check.
		n = t.tail
		t.unlink(n)
		t.nodes[n].tag = tag
	}
	t.pushHead(n)
	e.node = n + 1
	*ref = n + 1
}

// moveToHead splices an in-list, non-head node to the MRU position —
// the recency refresh every classified hit pays, so it exploits what
// the caller established: n has a live predecessor and the list a head.
func (t *Taxonomy) moveToHead(n int32) {
	nd := &t.nodes[n]
	prev, next := nd.prev, nd.next
	t.nodes[prev].next = next
	if next >= 0 {
		t.nodes[next].prev = prev
	} else {
		t.tail = prev
	}
	nd.prev, nd.next = -1, t.head
	t.nodes[t.head].prev = n
	t.head = n
}

func (t *Taxonomy) unlink(n int32) {
	nd := &t.nodes[n]
	if nd.prev >= 0 {
		t.nodes[nd.prev].next = nd.next
	} else {
		t.head = nd.next
	}
	if nd.next >= 0 {
		t.nodes[nd.next].prev = nd.prev
	} else {
		t.tail = nd.prev
	}
}

func (t *Taxonomy) pushHead(n int32) {
	nd := &t.nodes[n]
	nd.prev, nd.next = -1, t.head
	if t.head >= 0 {
		t.nodes[t.head].prev = n
	} else {
		t.tail = n
	}
	t.head = n
}

// flush empties the shadow (mirroring a cache Flush); the seen filter —
// deliberately infinite — survives, so post-flush misses are capacity,
// never compulsory. Truncating the pool makes every entry's node read as
// absent. The refs need no reset: the cache's flush clears every way,
// ref included.
func (t *Taxonomy) flush() {
	t.mruOK = false
	t.head, t.tail = -1, -1
	t.nodes = t.nodes[:0]
}

// EnableTaxonomy attaches a fresh miss classifier to the cache (idempotent
// in effect: a second call resets the classifier). The hierarchy enables
// it on both data levels; bare caches (e.g. the instruction cache) stay
// unclassified and pay nothing.
//
// The ways' refs name nodes of the classifier they were set under, so
// they are cleared here: a hit must never index the fresh, smaller node
// pool through a stale ref.
func (c *Cache) EnableTaxonomy() {
	c.tax = newTaxonomy(c.cfg.SizeBytes / c.cfg.LineBytes)
	for _, ch := range c.chunks {
		for i := range ch {
			ch[i].ref = 0
		}
	}
}

// Taxonomy returns the per-class miss breakdown (zero when the classifier
// is not enabled).
func (c *Cache) Taxonomy() stats.MissClasses {
	if c.tax == nil {
		return stats.MissClasses{}
	}
	return c.tax.Classes
}

// InvalidateCoherence removes addr's line like Invalidate, additionally
// marking the line so the taxonomy classifies its next miss as a
// coherence miss. Use it for protocol-driven invalidations
// (internal/multi downgrades, cross-thread stores in trace replay);
// plain Invalidate remains the right call for the §3.3 speculative
// squash path.
func (c *Cache) InvalidateCoherence(addr uint64) bool {
	inv := c.Invalidate(addr)
	if inv && c.tax != nil {
		c.tax.markCoherence(addr >> c.lineShift)
	}
	return inv
}
