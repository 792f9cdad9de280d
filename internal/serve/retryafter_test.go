package serve

import (
	"testing"
	"time"
)

// Retry-After audit (both 429 paths): a fractional wait must round UP to
// the next whole second. Truncation would tell a client to come back one
// second early, guaranteeing a second 429 for every sub-second remainder
// — the header's contract is "retry then and you will be admitted".

// admitTenants builds a TenantSet with one rate-limited tenant and a
// frozen clock, returning the set and the resolved tenant.
func admitTenants(t *testing.T, rate, burst float64) (*TenantSet, *tenant) {
	t.Helper()
	ts, err := NewTenantSet(TenantsFile{Tenants: []TenantSpec{
		{Name: "alice", Key: "k", RatePerSec: rate, Burst: burst},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts.now = func() time.Time { return time.Unix(1_000_000, 0) }
	return ts, ts.byKey["k"]
}

func TestAdmitRetryAfterRoundsUp(t *testing.T) {
	cases := []struct {
		name        string
		rate, burst float64
		take        int
		want        int
	}{
		// 2 cells against 1 token at 5/s: 0.2 s deficit. Truncation would
		// produce 0 (masked to 1 by the clamp here, but honest code must
		// not rely on the clamp to fix rounding).
		{"sub-second deficit", 5, 1, 2, 1},
		// 10 cells against 5 tokens at 2/s: 2.5 s -> 3, not 2.
		{"fractional seconds", 2, 5, 10, 3},
		// 3 cells against 1 token at 1/s: exactly 2.0 s stays 2 — ceil
		// must not over-round an exact boundary.
		{"exact boundary", 1, 1, 3, 2},
		// 9-token deficit at 0.5/s: 18 s, within the clamp, preserved.
		{"long honest wait", 0.5, 1, 10, 18},
		// 29-token deficit at 0.25/s: 116 s, clamped to the 30 s ceiling.
		{"clamped ceiling", 0.25, 1, 30, 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, tn := admitTenants(t, tc.rate, tc.burst)
			ra, we := ts.admit(tn, tc.take)
			if we == nil {
				t.Fatalf("admit(%d) at rate %v burst %v: admitted, want 429", tc.take, tc.rate, tc.burst)
			}
			if we.Code != CodeRateLimited {
				t.Fatalf("code %q, want %q", we.Code, CodeRateLimited)
			}
			if ra != tc.want {
				t.Errorf("Retry-After = %d, want %d", ra, tc.want)
			}
		})
	}
}

// TestAdmitRetryAfterHonest: waiting exactly the advertised Retry-After
// must be sufficient — the property that fails if rounding ever truncates.
func TestAdmitRetryAfterHonest(t *testing.T) {
	ts, tn := admitTenants(t, 2, 5)
	now := time.Unix(1_000_000, 0)
	ts.now = func() time.Time { return now }

	if _, we := ts.admit(tn, 5); we != nil {
		t.Fatal("draining the full burst should be admitted")
	}
	ra, we := ts.admit(tn, 5) // empty bucket, 5-token deficit at 2/s: 2.5 s -> 3
	if we == nil {
		t.Fatal("want denial on the drained bucket")
	}
	now = now.Add(time.Duration(ra) * time.Second)
	if _, we := ts.admit(tn, 5); we != nil {
		t.Fatalf("denied after waiting the advertised %d s", ra)
	}
}

// TestOverloadRetryAfterRoundsUp: a queue-overflow 429 asks the client to
// wait ⌈(depth+1)/workers⌉ flights at the mean per-flight service time,
// rounded up to whole seconds.
func TestOverloadRetryAfterRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		name           string
		depth, workers int
		meanMs         float64
		want           int
	}{
		// No completed flight yet: one second per flight.
		{"cold start", 0, 1, 0, 1},
		{"cold start, one queued", 1, 1, 0, 2},
		// 1.5 s mean, one flight deep: 1.5 -> 2. Truncation would answer 1.
		{"fractional mean", 0, 1, 1500, 2},
		// 3 queued + the retry spread over 4 workers: one flight each.
		{"workers absorb the backlog", 3, 4, 1500, 2},
		// 4 queued + the retry over 4 workers: two flights deep, 3.0 s.
		{"one past the workers", 4, 4, 1500, 3},
		// 5 queued + the retry over 2 workers: 3 flights at 0.7 s = 2.1 -> 3.
		{"two workers", 5, 2, 700, 3},
		// 100 flights deep at 1 s: clamped to the 30 s ceiling.
		{"clamped ceiling", 99, 1, 1000, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := queueRetryAfter(tc.depth, tc.workers, tc.meanMs); got != tc.want {
				t.Errorf("queueRetryAfter(%d, %d, %v) = %d, want %d", tc.depth, tc.workers, tc.meanMs, got, tc.want)
			}
		})
	}

	// The server reads the mean from its per-flight histogram.
	s := New(Config{Workers: 2})
	defer s.Close()
	if got := s.overloadRetryAfter(); got != 1 {
		t.Fatalf("cold-start Retry-After = %d, want 1", got)
	}
	s.met.FlightLatencyMs.Observe(1000)
	s.met.FlightLatencyMs.Observe(2000)
	if got := s.overloadRetryAfter(); got != 2 {
		t.Fatalf("Retry-After = %d, want 2 (1.5 s mean flight must round up)", got)
	}
}

func TestClampRetryAfter(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {17, 17}, {30, 30}, {31, 30}, {1000, 30},
	} {
		if got := clampRetryAfter(tc.in); got != tc.want {
			t.Errorf("clampRetryAfter(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
