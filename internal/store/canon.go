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
	"slices"
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
// It is one pass over raw, after json.Valid has checked its syntax (and
// bounded its nesting): number literals, true, false and null are copied
// verbatim, so int64 seeds above 2^53 survive exactly; a plain string —
// printable ASCII without '\\', '<', '>' or '&' — is copied verbatim too,
// since json.Marshal would write it back unchanged. Any other string is
// decoded and re-marshalled, so escapes, invalid UTF-8, U+2028/U+2029 and
// HTML characters come out exactly as json.Marshal writes them. Object
// members are sorted by their decoded key; of duplicate keys the last one
// wins, as decoding into a map does. The output is the only allocation
// when every string is plain.
func CanonicalBytes(raw []byte) ([]byte, error) {
	if !json.Valid(raw) {
		// Valid rejects trailing data too: "{}x" and "{}]" are not "{}".
		// Unmarshal runs the same check and says where it failed.
		var v any
		return nil, fmt.Errorf("store: parsing spec JSON: %w", json.Unmarshal(raw, &v))
	}
	var scratch [32]member
	// Reordering an object's members copies them past its end before moving
	// them back, so twice the input holds any output of plain strings.
	c := canonicalizer{in: raw, out: make([]byte, 0, 2*len(raw))}
	c.value(skipSpace(raw, 0), scratch[:0])
	return c.out, nil
}

// member is one object member already written to the output: where its
// decoded key is, which orders it, and the span of its canonical
// `"key":value` in the output. It holds no pointer, so the member stack's
// first backing array can live on CanonicalBytes' stack.
type member struct {
	key    span
	lo, hi int
}

// span is a decoded key: in[lo:hi] for a plain key, decoded[lo:hi] else.
type span struct {
	lo, hi  int
	decoded bool
}

// canonicalizer writes the canonical form of in, which json.Valid accepted,
// to out. The members of the objects being written share one backing
// array, passed down the recursion as the empty slice above the caller's
// members and never stored here or returned: a nested object appends its
// members there and is done with them when it returns. (An array that grew
// on the way down is dropped, and the parent keeps its own; returning it
// would move the first backing array to the heap.)
type canonicalizer struct {
	in  []byte
	out []byte
	// decoded holds the decoded bytes of every key that is not plain.
	decoded []byte
}

// key returns a member's decoded key.
func (c *canonicalizer) key(k span) []byte {
	if k.decoded {
		return c.decoded[k.lo:k.hi]
	}
	return c.in[k.lo:k.hi]
}

// value writes the value starting at in[i] and returns the index just past
// it; ms is empty, with the member array's free space as its capacity.
func (c *canonicalizer) value(i int, ms []member) int {
	switch c.in[i] {
	case '{':
		return c.object(i, ms)
	case '[':
		c.out = append(c.out, '[')
		i = skipSpace(c.in, i+1)
		for n := 0; c.in[i] != ']'; n++ {
			if n > 0 {
				c.out = append(c.out, ',')
				i = skipSpace(c.in, i+1) // past ','
			}
			i = skipSpace(c.in, c.value(i, ms))
		}
		c.out = append(c.out, ']')
		return i + 1
	case '"':
		end, _ := c.str(i)
		return end
	default:
		// A number literal, true, false or null: verbatim.
		j := i
		for j < len(c.in) && !isDelim(c.in[j]) {
			j++
		}
		c.out = append(c.out, c.in[i:j]...)
		return j
	}
}

// object writes the object starting at in[i]: each member in input order,
// then, unless the keys already ascend, the members again in key order over
// the first copy.
func (c *canonicalizer) object(i int, ms []member) int {
	c.out = append(c.out, '{')
	start := len(c.out)
	i = skipSpace(c.in, i+1)
	for c.in[i] != '}' {
		if len(ms) > 0 {
			c.out = append(c.out, ',')
			i = skipSpace(c.in, i+1) // past ','
		}
		lo := len(c.out)
		var key span
		i, key = c.str(i)
		c.out = append(c.out, ':')
		i = skipSpace(c.in, skipSpace(c.in, i)+1) // past ':'
		i = skipSpace(c.in, c.value(i, ms[len(ms):]))
		ms = append(ms, member{key: key, lo: lo, hi: len(c.out)})
	}
	c.out = append(c.out, '}')
	if !c.ascending(ms) {
		slices.SortStableFunc(ms, func(a, b member) int { return bytes.Compare(c.key(a.key), c.key(b.key)) })
		end := len(c.out) - 1 // the '}'
		for k, m := range ms {
			if k+1 < len(ms) && bytes.Equal(c.key(m.key), c.key(ms[k+1].key)) {
				continue // a later duplicate wins
			}
			if len(c.out) > end+1 {
				c.out = append(c.out, ',')
			}
			c.out = append(c.out, c.out[m.lo:m.hi]...)
		}
		n := copy(c.out[start:], c.out[end+1:])
		c.out = append(c.out[:start+n], '}')
	}
	return i + 1
}

// ascending reports whether the keys strictly ascend, so the members are
// already in canonical order with no duplicate to drop.
func (c *canonicalizer) ascending(ms []member) bool {
	for k := 1; k < len(ms); k++ {
		if bytes.Compare(c.key(ms[k-1].key), c.key(ms[k].key)) >= 0 {
			return false
		}
	}
	return true
}

// str writes the string starting at in[i] and returns the index just past
// it with where its decoded bytes are.
func (c *canonicalizer) str(i int) (int, span) {
	plain := true
	j := i + 1
	for ; c.in[j] != '"'; j++ {
		switch b := c.in[j]; {
		case b == '\\':
			plain = false
			j++ // the escaped byte cannot close the string
		case b < 0x20 || b > 0x7e || b == '<' || b == '>' || b == '&':
			plain = false
		}
	}
	tok := c.in[i : j+1]
	if plain {
		c.out = append(c.out, tok...)
		return j + 1, span{lo: i + 1, hi: j}
	}
	// Neither call can fail on a string token json.Valid accepted.
	var s string
	_ = json.Unmarshal(tok, &s)
	enc, _ := json.Marshal(s)
	c.out = append(c.out, enc...)
	lo := len(c.decoded)
	c.decoded = append(c.decoded, s...)
	return j + 1, span{lo: lo, hi: len(c.decoded), decoded: true}
}

// skipSpace returns the index of the first non-whitespace byte at or after i.
func skipSpace(in []byte, i int) int {
	for i < len(in) && (in[i] == ' ' || in[i] == '\t' || in[i] == '\n' || in[i] == '\r') {
		i++
	}
	return i
}

// isDelim reports whether b ends a number or literal token.
func isDelim(b byte) bool {
	switch b {
	case ',', '}', ']', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}

// Key returns the store key for a spec: the lowercase hex SHA-256 of its
// canonical JSON encoding.
func Key(spec any) (string, error) {
	c, err := Canonical(spec)
	if err != nil {
		return "", err
	}
	return keyOf(c), nil
}

// KeyBytes is Key over an already-encoded JSON spec document.
func KeyBytes(raw []byte) (string, error) {
	c, err := CanonicalBytes(raw)
	if err != nil {
		return "", err
	}
	return keyOf(c), nil
}

// keyOf is the store key of canonical bytes.
func keyOf(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
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
