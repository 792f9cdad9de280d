package serve

// fairQueue replaces the serving layer's plain bounded channel with a
// weighted-fair queue: flights are held in per-tenant FIFOs and the
// workers drain them weighted-round-robin, so a tenant that floods
// the queue with a large experiment only delays its own cells — another
// tenant's interactive request entering behind the flood is dequeued
// after at most (sum of active weights) pops, not after the whole flood.
//
// Within a tenant, order stays strict FIFO (the deterministic-merge
// contracts downstream rely on submission order per request, which the
// handler preserves by awaiting tickets in order — the queue only decides
// *when* a flight reaches a worker, never what it computes).
//
// Capacity is global (QueueSize): the queue overflowing is still the
// server's backpressure signal. The ready/space channels carry
// level-triggered wakeups (capacity 1, non-blocking sends): consumers
// re-check state after every wakeup, so coalesced signals are safe. A
// burst of pushes coalesces into one ready signal, so pop re-arms it
// while flights remain: each woken worker wakes the next.

import (
	"sync"

	"informing/internal/obs"
)

type tenantFIFO struct {
	t     *tenant
	items []*flight
	head  int
}

func (f *tenantFIFO) empty() bool { return f.head == len(f.items) }

// fifoCompactMin is the consumed-prefix length below which pop skips
// compaction: small queues never pay the copy, and a queue that empties is
// reset wholesale anyway.
const fifoCompactMin = 32

func (f *tenantFIFO) pop() *flight {
	fl := f.items[f.head]
	f.items[f.head] = nil // release for GC
	f.head++
	switch {
	case f.head == len(f.items):
		// Fully drained: drop the backing array instead of keeping it at
		// its high-water size. (The queue also deletes a drained FIFO from
		// the tenant map, but closeAndDrain and any future reuse go
		// through here too, and a tenant that is re-added a moment later
		// must not resurrect a flood-sized array.)
		f.items, f.head = nil, 0
	case f.head >= fifoCompactMin && f.head >= len(f.items)/2:
		// A continuously-busy tenant never drains, so without compaction
		// its slice grows by every flight it ever queued: append sees a
		// full backing array and reallocates, while the consumed prefix
		// keeps the old capacity live. Copying the tail into a right-sized
		// allocation caps memory at O(live flights) and costs amortized
		// O(1) per pop (each element moves at most once per doubling).
		live := make([]*flight, len(f.items)-f.head)
		copy(live, f.items[f.head:])
		f.items, f.head = live, 0
	}
	return fl
}

type fairQueue struct {
	mu     sync.Mutex
	cap    int
	size   int
	closed bool

	fifos  map[string]*tenantFIFO
	ring   []*tenantFIFO // active tenants, weighted-round-robin order
	cursor int
	credit int // pops left for ring[cursor] this round

	ready chan struct{} // signalled on push: work may be available
	space chan struct{} // signalled on pop: a slot may be free

	depthGauge *obs.Counter
}

func newFairQueue(capacity int, depthGauge *obs.Counter) *fairQueue {
	return &fairQueue{
		cap:        capacity,
		fifos:      map[string]*tenantFIFO{},
		ready:      make(chan struct{}, 1),
		space:      make(chan struct{}, 1),
		depthGauge: depthGauge,
	}
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// tryPush enqueues f under its tenant's FIFO. ok=false with closed=false
// means the queue is full (the 429 path); closed=true means the server is
// shutting down and nothing will ever drain the queue again.
func (q *fairQueue) tryPush(f *flight) (ok, closed bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false, true
	}
	if q.size >= q.cap {
		q.mu.Unlock()
		return false, false
	}
	fifo, have := q.fifos[f.tn.name]
	if !have {
		fifo = &tenantFIFO{t: f.tn}
		q.fifos[f.tn.name] = fifo
		q.ring = append(q.ring, fifo)
	}
	fifo.items = append(fifo.items, f)
	q.size++
	q.depthGauge.Store(uint64(q.size))
	q.mu.Unlock()
	signal(q.ready)
	return true, false
}

// pop removes the next flight under weighted round robin, or nil when the
// queue is empty. The caller waits on q.ready before retrying.
func (q *fairQueue) pop() *flight {
	q.mu.Lock()
	if q.size == 0 {
		q.mu.Unlock()
		return nil
	}
	if q.cursor >= len(q.ring) {
		q.cursor = 0
	}
	fifo := q.ring[q.cursor]
	if q.credit <= 0 {
		q.credit = fifo.t.weight
		if q.credit < 1 {
			q.credit = 1
		}
	}
	f := fifo.pop()
	q.credit--
	q.size--
	if fifo.empty() {
		delete(q.fifos, fifo.t.name)
		q.ring = append(q.ring[:q.cursor], q.ring[q.cursor+1:]...)
		q.credit = 0 // cursor now points at the next tenant
	} else if q.credit == 0 {
		q.cursor++
	}
	q.depthGauge.Store(uint64(q.size))
	more := q.size > 0
	q.mu.Unlock()
	signal(q.space)
	if more {
		signal(q.ready)
	}
	return f
}

func (q *fairQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// closeAndDrain marks the queue closed (tryPush fails with closed=true
// from now on) and returns everything still queued, in per-tenant order,
// for the caller to fail with the shutdown error.
func (q *fairQueue) closeAndDrain() []*flight {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	var rest []*flight
	for _, fifo := range q.ring {
		for !fifo.empty() {
			rest = append(rest, fifo.pop())
		}
	}
	q.ring, q.fifos = nil, map[string]*tenantFIFO{}
	q.size = 0
	q.depthGauge.Store(0)
	return rest
}
