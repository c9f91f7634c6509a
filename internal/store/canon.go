// Package store is spinelessd's content-addressed result cache: experiment
// results keyed by the SHA-256 of a canonical JSON encoding of the full
// experiment spec. Because every experiment in this tree is deterministic
// given its spec (the PR-2 lint contract, the PR-3 parallel-engine
// contract), a cache hit is semantically identical to a re-run — the store
// is a pure memoization layer, and spinelessd's sampled re-execution audit
// (internal/jobs) keeps that equivalence honest at runtime.
//
// On disk a store is a directory of immutable entry files committed by
// atomic rename, plus a best-effort index carrying logical-clock recency
// for LRU size capping. Every load path is corruption-tolerant: a torn,
// truncated or hand-edited entry demotes to a cache miss, never an error.
// An entry that passed those checks once is kept in memory, within a fixed
// byte budget, and later hits are served from there.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// Canonical returns the canonical JSON encoding of v: object keys sorted,
// no insignificant whitespace, number literals preserved verbatim. Two
// specs that encode to the same canonical bytes are the same experiment;
// the encoding is the store's hash preimage, so it must be stable across
// struct field reordering and map iteration order.
func Canonical(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("store: encoding spec: %w", err)
	}
	return CanonicalBytes(raw)
}

// CanonicalBytes canonicalizes an existing JSON document (see Canonical).
// Numbers round-trip as json.Number so int64 seeds above 2^53 survive
// exactly instead of being flattened through float64.
func CanonicalBytes(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("store: parsing spec JSON: %w", err)
	}
	// Reject trailing garbage: "{}x" must not canonicalize to "{}".
	if dec.More() {
		return nil, fmt.Errorf("store: spec JSON has trailing data")
	}
	var b bytes.Buffer
	if err := writeCanonical(&b, v); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// writeCanonical renders the decoded document with sorted object keys.
// encoding/json already sorts map keys, but re-implementing the walk keeps
// the output byte-stable by construction (compact, HTML escaping applied
// uniformly via json.Marshal on leaves) rather than by implementation
// accident.
func writeCanonical(b *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return fmt.Errorf("store: encoding key %q: %w", k, err)
			}
			b.Write(kb)
			b.WriteByte(':')
			if err := writeCanonical(b, x[k]); err != nil {
				return err
			}
		}
		b.WriteByte('}')
	case []any:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			if err := writeCanonical(b, e); err != nil {
				return err
			}
		}
		b.WriteByte(']')
	case json.Number:
		b.WriteString(x.String())
	default:
		eb, err := json.Marshal(x)
		if err != nil {
			return fmt.Errorf("store: encoding leaf: %w", err)
		}
		b.Write(eb)
	}
	return nil
}

// Key returns the store key for a spec: the lowercase hex SHA-256 of its
// canonical JSON encoding.
func Key(spec any) (string, error) {
	c, err := Canonical(spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// KeyBytes is Key over an already-encoded JSON spec document.
func KeyBytes(raw []byte) (string, error) {
	c, err := CanonicalBytes(raw)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// ValidKey reports whether s is syntactically a store key (64 hex bytes),
// used by the HTTP layer to reject path garbage before touching the disk.
func ValidKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
