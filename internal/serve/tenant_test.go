package serve

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// FuzzTenantsFile feeds arbitrary keyfile bytes through the two steps of
// LoadTenantsFile (json.Unmarshal into TenantsFile, then NewTenantSet).
// Neither may panic. Every accepted set must resolve each named tenant by
// its X-API-Key and the keyless request by the anonymous rule, and
// admitting 1 or 64 cells for any of its tenants must either pass or be
// denied as rate-limited with a Retry-After in [1, 30]. The seed corpus
// holds the README keyfile, an empty object, deny_anonymous, a duplicate
// name and both reserved names.
func FuzzTenantsFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var file TenantsFile
		if err := json.Unmarshal(raw, &file); err != nil {
			return
		}
		set, err := NewTenantSet(file)
		if err != nil {
			return
		}
		set.now = func() time.Time { return time.Unix(1000, 0) }
		for _, spec := range file.Tenants {
			r := &http.Request{Header: http.Header{}}
			r.Header.Set("X-API-Key", spec.Key)
			tn, we := set.resolve(r)
			if we != nil || tn.name != spec.Name {
				t.Fatalf("key %q resolves to %+v (%v), want tenant %q", spec.Key, tn, we, spec.Name)
			}
		}
		tn, we := set.resolve(&http.Request{Header: http.Header{}})
		if file.DenyAnonymous != (we != nil) || (we == nil && tn.name != AnonymousTenant) {
			t.Fatalf("keyless request resolves to %+v (%v) with deny_anonymous %v", tn, we, file.DenyAnonymous)
		}
		for _, tn := range set.all {
			for _, n := range []int{1, 64} {
				retry, we := set.admit(tn, n)
				if we != nil && (we.Code != CodeRateLimited || retry < 1 || retry > 30) {
					t.Fatalf("tenant %q, %d cells: denied with %+v, Retry-After %d", tn.name, n, we, retry)
				}
			}
		}
	})
}
