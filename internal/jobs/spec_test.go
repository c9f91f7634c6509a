package jobs

import (
	"bytes"
	"encoding/json"
	"testing"

	"spineless/internal/store"
)

// TestSpecHashAllocs pins what a cache-hit submit pays for its key: boxing
// the spec, marshalling it, the canonical bytes and the hex string — no
// decode of the document into maps.
func TestSpecHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties json.Marshal's encoder pool at random; CI pins this in a non-race step")
	}
	sp := tinySpec().Normalized()
	n := testing.AllocsPerRun(100, func() {
		if _, err := sp.Hash(); err != nil {
			t.Fatal(err)
		}
	})
	if n > 5 {
		t.Fatalf("Spec.Hash allocates %.0f times, want <= 5", n)
	}
}

// FuzzSpecHash decodes arbitrary bytes the way the HTTP service does
// (unknown fields rejected), then normalizes and validates them. For every
// spec that passes, HashForm is a fixed point of hashing, and Hash is the
// store key of the HashForm's JSON document.
func FuzzSpecHash(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			return
		}
		sp = sp.Normalized()
		if sp.Validate() != nil {
			return
		}
		h, err := sp.Hash()
		if err != nil {
			t.Fatalf("valid spec %+v does not hash: %v", sp, err)
		}
		hf := sp.HashForm()
		if h2, err := hf.Hash(); err != nil || h2 != h {
			t.Fatalf("Hash(HashForm) = %s (%v), Hash = %s", h2, err, h)
		}
		raw, err := json.Marshal(hf)
		if err != nil {
			t.Fatal(err)
		}
		if k, err := store.KeyBytes(raw); err != nil || k != h {
			t.Fatalf("KeyBytes(HashForm JSON) = %s (%v), Hash = %s", k, err, h)
		}
	})
}
