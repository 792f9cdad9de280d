package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// CodeVersion names the simulator semantics the cache keys are valid for.
// It participates in every fingerprint, so results computed by one build
// of the simulator are never served for a build whose measured statistics
// could differ. Bump it whenever a change would re-record the hot-path
// golden grid (internal/core TestHotpathGolden) — the two pins guard the
// same property from opposite directions.
const CodeVersion = "informing-sim/6"

// Fingerprint returns the cache key of a canonical request: the first 16
// bytes of the SHA-256 of its canonical string, hex-encoded (32
// characters). Keys are stable across processes and architectures — the
// canonical string is built from struct fields in a fixed order, never
// from map iteration or wire field order — and the fingerprint-determinism
// tests regression-pin known keys in testdata/fingerprints.json.
//
// Call only with a request Canonicalize has produced; fingerprinting a
// non-canonical request would let two spellings of the same simulation
// occupy two cache slots (correct but wasteful) — or worse, let a
// non-validated field into the key.
func Fingerprint(c Request) string {
	sum := sha256.Sum256([]byte(canonicalString(c)))
	return hex.EncodeToString(sum[:16])
}

// canonicalString serialises a canonical request field by field in a
// fixed order. Program sources are folded in as their own SHA-256 so the
// canonical string stays bounded and printable.
func canonicalString(c Request) string {
	switch c.Kind {
	case KindCell:
		return fmt.Sprintf("%s|cell|bench=%s|plan=%s|machine=%s|scale=%d|maxinsts=%d|policy=%s",
			CodeVersion, c.Benchmark, c.Plan, c.Machine, c.Scale, c.MaxInsts, c.Policy)
	case KindFig4:
		return fmt.Sprintf("%s|fig4|app=%s|scheme=%s|procs=%d|maxrefs=%d",
			CodeVersion, c.App, c.Scheme, c.Processors, c.MaxRefs)
	case KindProgram:
		src := hashString(c.Source)
		return fmt.Sprintf("%s|program|machine=%s|scheme=%s|maxinsts=%d|src=%s",
			CodeVersion, c.Machine, c.Scheme, c.MaxInsts, hex.EncodeToString(src[:]))
	case KindTrace:
		// Like program sources, the trace content folds in as its own
		// SHA-256 so multi-megabyte traces keep the canonical string
		// bounded.
		tr := hashString(c.Trace)
		return fmt.Sprintf("%s|trace|machine=%s|maxrefs=%d|sampled=%t|trace=%s",
			CodeVersion, c.Machine, c.MaxRefs, c.AllowSampled, hex.EncodeToString(tr[:]))
	}
	// Canonicalize never emits another kind; keep unknown kinds from
	// colliding with anything real.
	return fmt.Sprintf("%s|unknown|%q", CodeVersion, c.Kind)
}

// hashChunk is the largest piece of a string hashString copies at once.
const hashChunk = 32 << 10

// hashString is sha256.Sum256 of s without converting s to a []byte,
// which would copy it whole: a trace can be tens of megabytes. s streams
// through the hash in chunks of at most hashChunk bytes.
func hashString(s string) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, min(len(s), hashChunk))
	for len(s) > 0 {
		n := copy(buf, s)
		h.Write(buf[:n])
		s = s[n:]
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
