package serve

// Per-tenant admission control. Production informd serves many clients;
// treating them identically lets one tenant's 1024-cell experiment starve
// another's interactive /v1/simulate. Tenants are identified by static API
// keys (a keyfile the operator maintains — no auth service dependency),
// admitted through per-tenant token buckets (rate) and scheduled through
// the weighted-fair queue (share), with an anonymous tier preserving the
// keyless back-compat path.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"informing/internal/obs"
)

// AnonymousTenant is the tenant name of keyless requests.
const AnonymousTenant = "anonymous"

// TenantSpec is one tenant's admission policy as written in the keyfile.
type TenantSpec struct {
	// Name labels the tenant in metrics and logs. Required, unique.
	Name string `json:"name"`

	// Key is the API key clients present (X-API-Key header or
	// Authorization: Bearer). Required for named tenants, ignored for the
	// anonymous tier.
	Key string `json:"key,omitempty"`

	// RatePerSec is the sustained admission rate in cells per second
	// (every submitted cell costs one token). 0 = unlimited.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`

	// Burst is the token-bucket depth (0 = max(2×rate, 1)); it bounds how
	// many cells a tenant can land instantaneously.
	Burst float64 `json:"burst,omitempty"`

	// Weight is the tenant's share in the weighted-fair queue
	// (0 = 1). A weight-4 tenant drains four queued cells for every one a
	// weight-1 tenant drains while both have work pending.
	Weight int `json:"weight,omitempty"`
}

// TenantsFile is the keyfile schema: a JSON object, documented in README
// "Operating informd".
type TenantsFile struct {
	Tenants []TenantSpec `json:"tenants"`

	// Anonymous, when set, applies rate/weight policy to keyless requests
	// (its Key is ignored). When absent, keyless requests are admitted
	// unlimited — the pre-tenant behaviour.
	Anonymous *TenantSpec `json:"anonymous,omitempty"`

	// DenyAnonymous rejects keyless requests with 401 instead.
	DenyAnonymous bool `json:"deny_anonymous,omitempty"`
}

// tokenBucket is a standard continuous-refill token bucket.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate, burst float64) *tokenBucket {
	return &tokenBucket{rate: rate, burst: burst, tokens: burst}
}

// take withdraws n tokens. When the bucket cannot cover n it reports the
// honest wait until the deficit refills — the Retry-After a client that
// actually waits that long will find satisfiable.
func (b *tokenBucket) take(n float64, now time.Time) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens = math.Min(b.burst, b.tokens+b.rate*now.Sub(b.last).Seconds())
	}
	b.last = now
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	deficit := n - b.tokens
	return false, time.Duration(deficit / b.rate * float64(time.Second))
}

// tenant is the resolved runtime form of a TenantSpec, carrying its
// pre-bound per-tenant metric handles (serve_*{tenant="name"}).
type tenant struct {
	name   string
	weight int
	bucket *tokenBucket // nil = unlimited

	reqs    *obs.Counter
	cells   *obs.Counter
	hits    *obs.Counter
	limited *obs.Counter
}

// TenantMetricName returns the per-tenant variant of a serve_* metric
// name, e.g. serve_cells_total{tenant="alice"}.
func TenantMetricName(base, tenantName string) string {
	return fmt.Sprintf("%s{tenant=%q}", base, tenantName)
}

// TenantSet is the server's immutable tenant index. The zero value is not
// usable; build with NewTenantSet or LoadTenantsFile. A nil *TenantSet is
// valid in Config and means "anonymous only, unlimited" (back-compat).
type TenantSet struct {
	byKey  map[string]*tenant
	byName map[string]*tenant
	anon   *tenant // nil = keyless requests rejected
	fwd    *tenant // attribution of forwarded hops whose tenant is unknown here
	all    []*tenant

	// now is the clock the buckets read; tests override it.
	now func() time.Time
}

func tenantFromSpec(spec TenantSpec, name string) *tenant {
	t := &tenant{name: name, weight: spec.Weight}
	if t.weight < 1 {
		t.weight = 1
	}
	if spec.RatePerSec > 0 {
		burst := spec.Burst
		if burst <= 0 {
			burst = math.Max(2*spec.RatePerSec, 1)
		}
		t.bucket = newBucket(spec.RatePerSec, burst)
	}
	return t
}

// ForwardedTenant is the attribution tenant of cluster-forwarded
// requests whose ingress tenant name is not in this node's keyfile
// (cluster nodes with divergent keyfiles). It has no token bucket —
// admission already happened at the ingress node.
const ForwardedTenant = "forwarded"

// NewTenantSet validates and indexes a keyfile's contents.
func NewTenantSet(file TenantsFile) (*TenantSet, error) {
	ts := &TenantSet{byKey: map[string]*tenant{}, byName: map[string]*tenant{}, now: time.Now}
	seenName := map[string]bool{AnonymousTenant: true, ForwardedTenant: true}
	for i, spec := range file.Tenants {
		if spec.Name == "" {
			return nil, fmt.Errorf("tenant %d: no name", i)
		}
		if spec.Key == "" {
			return nil, fmt.Errorf("tenant %q: no key", spec.Name)
		}
		if seenName[spec.Name] {
			return nil, fmt.Errorf("duplicate or reserved tenant name %q", spec.Name)
		}
		if _, dup := ts.byKey[spec.Key]; dup {
			return nil, fmt.Errorf("tenant %q: key already in use", spec.Name)
		}
		seenName[spec.Name] = true
		t := tenantFromSpec(spec, spec.Name)
		ts.byKey[spec.Key] = t
		ts.byName[spec.Name] = t
		ts.all = append(ts.all, t)
	}
	if !file.DenyAnonymous {
		spec := TenantSpec{}
		if file.Anonymous != nil {
			spec = *file.Anonymous
		}
		ts.anon = tenantFromSpec(spec, AnonymousTenant)
		ts.all = append(ts.all, ts.anon)
	}
	ts.fwd = tenantFromSpec(TenantSpec{}, ForwardedTenant)
	ts.all = append(ts.all, ts.fwd)
	return ts, nil
}

// LoadTenantsFile reads and validates a JSON keyfile.
func LoadTenantsFile(path string) (*TenantSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenants file: %w", err)
	}
	var file TenantsFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("tenants file %s: %w", path, err)
	}
	ts, err := NewTenantSet(file)
	if err != nil {
		return nil, fmt.Errorf("tenants file %s: %w", path, err)
	}
	return ts, nil
}

// bind resolves every tenant's per-tenant metric handles in reg.
func (ts *TenantSet) bind(reg *obs.Registry) {
	for _, t := range ts.all {
		t.reqs = reg.Counter(TenantMetricName(MetricRequests, t.name))
		t.cells = reg.Counter(TenantMetricName(MetricCells, t.name))
		t.hits = reg.Counter(TenantMetricName(MetricHits, t.name))
		t.limited = reg.Counter(TenantMetricName(MetricRateLimited, t.name))
	}
}

// resolve maps a request to its tenant: X-API-Key or Authorization:
// Bearer name a tenant, no key selects the anonymous tier. An unknown key
// (or a keyless request with the tier denied) is unauthorized.
func (ts *TenantSet) resolve(r *http.Request) (*tenant, *WireError) {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	if key == "" {
		if ts.anon == nil {
			return nil, &WireError{Code: CodeUnauthorized, Message: "API key required (anonymous tier disabled)"}
		}
		return ts.anon, nil
	}
	t, ok := ts.byKey[key]
	if !ok {
		return nil, &WireError{Code: CodeUnauthorized, Message: "unknown API key"}
	}
	return t, nil
}

// resolveForwarded maps a cluster-forwarded request's carried tenant
// name to a local tenant for attribution (metrics, fair-queue weight).
// The bucket is NOT consulted here or later — the ingress node already
// admitted the work; charging again would double-bill every
// cluster-routed cell. An unknown name (divergent keyfiles across the
// cluster) attributes to the anonymous tier when it exists, else to the
// reserved "forwarded" tenant — never a rejection: the ingress node
// vouched for the request.
func (ts *TenantSet) resolveForwarded(name string) *tenant {
	if t, ok := ts.byName[name]; ok {
		return t
	}
	if ts.anon != nil {
		return ts.anon
	}
	return ts.fwd
}

// admit charges n cells against the tenant's token bucket. On denial it
// returns the honest Retry-After in whole seconds, clamped to [1, 30].
func (ts *TenantSet) admit(t *tenant, n int) (retryAfter int, we *WireError) {
	if t.bucket == nil {
		return 0, nil
	}
	ok, wait := t.bucket.take(float64(n), ts.now())
	if ok {
		return 0, nil
	}
	return clampRetryAfter(int(math.Ceil(wait.Seconds()))), &WireError{
		Code:    CodeRateLimited,
		Message: fmt.Sprintf("tenant %q above admission rate (%d cells requested)", t.name, n),
	}
}

// clampRetryAfter bounds a computed Retry-After to [1, 30] seconds: never
// 0 (a thundering immediate retry), never so long a client gives up on a
// transient backlog.
func clampRetryAfter(secs int) int {
	if secs < 1 {
		return 1
	}
	if secs > 30 {
		return 30
	}
	return secs
}
