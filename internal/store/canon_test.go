package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"testing"
)

// canonicalReference is the decode-to-any canonicalizer CanonicalBytes
// replaced, kept as its oracle: it decodes the whole document into
// map[string]any and re-marshals every key and leaf. Every store key ever
// committed was computed by it, so CanonicalBytes must agree with it byte
// for byte, and on which documents it rejects.
func canonicalReference(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("store: parsing spec JSON: %w", err)
	}
	// Reject trailing garbage: "{}x" and "{}]" must not canonicalize to
	// "{}". (Decoder.More reports false at a closing bracket, so it cannot
	// tell.)
	if _, err := dec.Token(); err != io.EOF {
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

// canonicalCases are documents whose canonical form the string,
// member-order and duplicate rules decide; FuzzCanonical's seed corpus
// holds them too.
var canonicalCases = []struct{ in, want string }{
	{`{"v":1,"kind":"fct","topo":{"paper":true},"fabric":"dring","scheme":"su2","tm":"A2A","util":0.3,"window_sec":0.002,"seed":1,"max_flows":16}`,
		`{"fabric":"dring","kind":"fct","max_flows":16,"scheme":"su2","seed":1,"tm":"A2A","topo":{"paper":true},"util":0.3,"v":1,"window_sec":0.002}`},
	{" {\n\t\"b\" : [ 1 , {\"d\":null,\"c\":true} ] ,\r\"a\":false } ", `{"a":false,"b":[1,{"c":true,"d":null}]}`},
	// Of duplicate keys the last wins, also when an escape spells one.
	{`{"a":1,"a":2,"b":3,"a":4}`, `{"a":4,"b":3}`},
	{`{"a":1,"\u0061":2}`, `{"a":2}`},
	{`{"\u0061":1,"a":2}`, `{"a":2}`},
	// Not plain: HTML characters, escapes, non-ASCII, invalid UTF-8 and
	// lone surrogates (both U+FFFD), U+2028.
	{`{"<":"a&b>","b":"\/\b\f\n"}`, `{"\u003c":"a\u0026b\u003e","b":"/\b\f\n"}`},
	{"[\"\u2028\",\"\u00e9\",\"\\ud800\",\"\xff\"]", "[\"\\u2028\",\"\u00e9\",\"\ufffd\",\"\ufffd\"]"},
	// Members sort by decoded key, bytewise.
	{"{\"\u00e9\":1,\"z\":2,\"a\\u0000\":3,\"a\":4}", "{\"a\":4,\"a\\u0000\":3,\"z\":2,\"\u00e9\":1}"},
	// Number literals are copied verbatim, whatever float64 would make of them.
	{`{"seed":4611686018427399249,"big":1e400,"neg":-0.0E+1}`, `{"big":1e400,"neg":-0.0E+1,"seed":4611686018427399249}`},
	{`"plain"`, `"plain"`},
	{` 7 `, `7`},
	{`{}`, `{}`},
	{`[[],{}]`, `[[],{}]`},
}

// TestCanonicalMatchesReference pins the cases above and checks the
// scanner against the decode-to-any oracle on each.
func TestCanonicalMatchesReference(t *testing.T) {
	for _, tc := range canonicalCases {
		got, err := CanonicalBytes([]byte(tc.in))
		if err != nil {
			t.Errorf("CanonicalBytes(%q): %v", tc.in, err)
			continue
		}
		if string(got) != tc.want {
			t.Errorf("CanonicalBytes(%q) = %q, want %q", tc.in, got, tc.want)
		}
		ref, err := canonicalReference([]byte(tc.in))
		if err != nil || !bytes.Equal(got, ref) {
			t.Errorf("CanonicalBytes(%q) = %q, reference %q (%v)", tc.in, got, ref, err)
		}
	}
}

// TestCanonicalAllocs pins the scanner's one allocation, the output
// buffer, on a spec whose strings are all plain; the slack of one covers
// the race detector emptying json.Valid's scanner pool.
func TestCanonicalAllocs(t *testing.T) {
	raw := []byte(canonicalCases[0].in)
	n := testing.AllocsPerRun(100, func() {
		if _, err := CanonicalBytes(raw); err != nil {
			t.Fatal(err)
		}
	})
	if n > 2 {
		t.Fatalf("CanonicalBytes allocates %.0f times on a plain spec, want <= 2", n)
	}
}

// FuzzCanonical checks CanonicalBytes against canonicalReference on
// arbitrary bytes: both accept or both reject, and an accepted document
// canonicalizes to the same bytes. The output is itself canonical, and the
// key of a document does not depend on how it was encoded: decoded into
// map[string]any, or re-compacted by json.Marshal (which HTML-escapes
// strings the input may carry raw).
func FuzzCanonical(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := CanonicalBytes(data)
		ref, refErr := canonicalReference(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("CanonicalBytes err = %v, reference err = %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("CanonicalBytes = %q, reference %q", got, ref)
		}
		again, err := CanonicalBytes(got)
		if err != nil || !bytes.Equal(again, got) {
			t.Fatalf("not idempotent: %q canonicalizes to %q (%v)", got, again, err)
		}

		want, err := KeyBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var decoded any
		if err := dec.Decode(&decoded); err != nil {
			t.Fatal(err)
		}
		for _, v := range []any{decoded, json.RawMessage(data)} {
			raw, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			k, err := Key(v)
			if err != nil || k != want {
				t.Fatalf("Key(%T) = %s (%v), KeyBytes = %s", v, k, err, want)
			}
			if kb, err := KeyBytes(raw); err != nil || kb != want {
				t.Fatalf("KeyBytes(json.Marshal(%T)) = %s (%v), want %s", v, kb, err, want)
			}
		}
	})
}
