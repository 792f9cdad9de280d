package serve

import (
	"testing"
	"time"

	"informing/internal/obs"
)

// A tenant that always has at least one flight queued never fully drains
// its FIFO, so pop's full-drain reset never fires for it. Before the
// compaction path was added, such a tenant's backing array grew by every
// flight it ever queued (pop only nils and advances head; append sees a
// full array and keeps doubling), an unbounded leak across the life of
// the server. The regression test pushes and pops in steady state and
// asserts the backing array stays proportional to the live queue depth.
func TestFairQueueBusyTenantArrayBounded(t *testing.T) {
	q := newFairQueue(1<<20, &obs.Counter{})
	tn := &tenant{name: "busy", weight: 1}

	const live = 40
	for i := 0; i < live; i++ {
		if ok, _ := q.tryPush(&flight{tn: tn}); !ok {
			t.Fatalf("push %d refused", i)
		}
	}
	for i := 0; i < 50_000; i++ {
		if ok, _ := q.tryPush(&flight{tn: tn}); !ok {
			t.Fatalf("push refused at iteration %d", i)
		}
		if q.pop() == nil {
			t.Fatalf("pop returned nil at iteration %d", i)
		}
	}

	fifo := q.fifos["busy"]
	if fifo == nil {
		t.Fatal("busy tenant FIFO missing")
	}
	if got := len(fifo.items) - fifo.head; got != live {
		t.Fatalf("live flights = %d, want %d", got, live)
	}
	// 4×live is generous slack for append doubling plus the pre-compaction
	// consumed prefix; the pre-fix behavior is cap ≥ 50 000.
	if cap(fifo.items) > 4*live {
		t.Fatalf("backing array grew to cap %d for %d live flights; compaction is not releasing the consumed prefix",
			cap(fifo.items), live)
	}
}

// Draining a FIFO completely must drop the backing array, not retain it at
// its high-water size: closeAndDrain pops through the same path, and a
// flood-sized array must not stay reachable from a retained tenantFIFO.
func TestFairQueueDrainReleasesArray(t *testing.T) {
	q := newFairQueue(1<<20, &obs.Counter{})
	tn := &tenant{name: "burst", weight: 1}

	const burst = 1000
	for i := 0; i < burst; i++ {
		if ok, _ := q.tryPush(&flight{tn: tn}); !ok {
			t.Fatalf("push %d refused", i)
		}
	}
	fifo := q.fifos["burst"]
	for i := 0; i < burst; i++ {
		if q.pop() == nil {
			t.Fatalf("pop %d returned nil", i)
		}
	}
	if fifo.items != nil || fifo.head != 0 {
		t.Fatalf("drained FIFO retains backing array: len %d cap %d head %d",
			len(fifo.items), cap(fifo.items), fifo.head)
	}
	if q.pop() != nil {
		t.Fatal("pop on empty queue returned a flight")
	}
}

// Compaction must not disturb FIFO order or weighted round robin across
// tenants.
func TestFairQueueOrderSurvivesCompaction(t *testing.T) {
	q := newFairQueue(1<<20, &obs.Counter{})
	tn := &tenant{name: "t", weight: 1}

	next := 0 // next key expected out
	seq := 0  // next key pushed
	push := func() {
		t.Helper()
		if ok, _ := q.tryPush(&flight{tn: tn, key: string(rune('A' + seq%26))}); !ok {
			t.Fatal("push refused")
		}
		seq++
	}
	for i := 0; i < 48; i++ {
		push()
	}
	for i := 0; i < 10_000; i++ {
		push()
		fl := q.pop()
		if fl == nil {
			t.Fatalf("pop returned nil at iteration %d", i)
		}
		if want := string(rune('A' + next%26)); fl.key != want {
			t.Fatalf("iteration %d: popped key %q, want %q (FIFO order broken)", i, fl.key, want)
		}
		next++
	}
}

// A burst of pushes with no worker parked coalesces into one ready
// signal. Each consumer that takes it must re-arm it while flights
// remain, or all but one of K parked workers sleep with work queued.
func TestFairQueueBurstWakesEveryWaiter(t *testing.T) {
	const k = 4
	q := newFairQueue(16, &obs.Counter{})
	tn := &tenant{name: "burst", weight: 1}
	for i := 0; i < k; i++ {
		if ok, _ := q.tryPush(&flight{tn: tn}); !ok {
			t.Fatalf("push %d refused", i)
		}
	}
	got := make(chan *flight, k)
	for i := 0; i < k; i++ {
		go func() {
			<-q.ready
			got <- q.pop()
		}()
	}
	for i := 0; i < k; i++ {
		select {
		case f := <-got:
			if f == nil {
				t.Fatalf("waiter %d woke to an empty queue", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d waiters woke for %d queued flights", i, k, k)
		}
	}
}
