package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSpec is the one entry every FuzzStoreGet run commits before it
// corrupts the store; the seed corpus under testdata/fuzz/FuzzStoreGet
// spells out its hash.
const (
	fuzzSpec   = `{"exp":"fuzz","seed":1}`
	fuzzResult = `{"v":1}`
)

// FuzzStoreGet writes arbitrary bytes over a committed entry's file or,
// with overIndex, over index.json before reopening the store. Whatever the
// bytes, Open succeeds, and Get either misses or returns an entry whose
// spec hashes to its key and whose result is valid JSON — the same bytes
// again on the next Get, or a miss both times.
func FuzzStoreGet(f *testing.F) {
	f.Fuzz(func(t *testing.T, overIndex bool, data []byte) {
		dir := t.TempDir()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		hash, err := KeyBytes([]byte(fuzzSpec))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(hash, json.RawMessage(fuzzSpec), json.RawMessage(fuzzResult)); err != nil {
			t.Fatal(err)
		}
		if overIndex {
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, indexFile), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if st, err = Open(dir, Options{}); err != nil {
				t.Fatalf("Open over a corrupted index: %v", err)
			}
		} else if err := os.WriteFile(st.entryPath(hash), data, 0o644); err != nil {
			t.Fatal(err)
		}

		first, ok1 := st.Get(hash)
		if ok1 {
			if k, err := KeyBytes(first.Spec); err != nil || k != hash {
				t.Fatalf("served spec %q keys to %q (%v), want %s", first.Spec, k, err, hash)
			}
			if !json.Valid(first.Result) {
				t.Fatalf("served result %q is not valid JSON", first.Result)
			}
		}
		second, ok2 := st.Get(hash)
		if ok1 != ok2 {
			t.Fatalf("first get hit=%v, second hit=%v", ok1, ok2)
		}
		if ok1 && (!bytes.Equal(first.Spec, second.Spec) || !bytes.Equal(first.Result, second.Result)) {
			t.Fatalf("second get served %s / %s, first %s / %s", second.Spec, second.Result, first.Spec, first.Result)
		}
	})
}
