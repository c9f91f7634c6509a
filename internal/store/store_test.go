package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestCanonicalKeyStability(t *testing.T) {
	// Field order and map order must not matter.
	a := map[string]any{"seed": int64(1), "util": 0.3, "tm": "A2A"}
	b := map[string]any{"tm": "A2A", "util": 0.3, "seed": int64(1)}
	ka, err := Key(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := Key(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("map order changed the key: %s vs %s", ka, kb)
	}
	if !ValidKey(ka) {
		t.Fatalf("key %q not 64 hex bytes", ka)
	}

	type s1 struct {
		Seed int64   `json:"seed"`
		Util float64 `json:"util"`
		TM   string  `json:"tm"`
	}
	type s2 struct {
		TM   string  `json:"tm"`
		Seed int64   `json:"seed"`
		Util float64 `json:"util"`
	}
	k1, err := Key(s1{1, 0.3, "A2A"})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Key(s2{"A2A", 1, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 || k1 != ka {
		t.Fatalf("struct field order changed the key: %s %s %s", k1, k2, ka)
	}
}

func TestCanonicalPreservesBigInt64(t *testing.T) {
	// Seeds above 2^53 must survive canonicalization exactly (a float64
	// round-trip would corrupt them).
	seed := int64(1<<62 + 12345)
	c, err := Canonical(map[string]any{"seed": seed})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`{"seed":%d}`, seed)
	if string(c) != want {
		t.Fatalf("canonical = %s, want %s", c, want)
	}
}

func TestCanonicalRejectsTrailingGarbage(t *testing.T) {
	// A stray closing bracket is trailing data too: "{}]" must not
	// canonicalize to "{}", nor "[1,2]}" to "[1,2]".
	for _, in := range []string{`{"a":1} extra`, `{}]`, `[1,2]}`, `{}}`, `[]]`, `1]`, `{} {}`, `"a"}`} {
		if c, err := CanonicalBytes([]byte(in)); err == nil {
			t.Errorf("CanonicalBytes(%q) = %q: trailing data accepted", in, c)
		}
		if c, err := canonicalReference([]byte(in)); err == nil {
			t.Errorf("canonicalReference(%q) = %q: trailing data accepted", in, c)
		}
	}
}

func mustKey(t *testing.T, spec any) (string, json.RawMessage) {
	t.Helper()
	h, err := Key(spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Canonical(spec)
	if err != nil {
		t.Fatal(err)
	}
	return h, raw
}

func TestPutGetRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := map[string]any{"exp": "fct", "seed": int64(7)}
	hash, specRaw := mustKey(t, spec)
	result := json.RawMessage(`{"p99":1.25,"flows":120}`)

	if _, ok := st.Get(hash); ok {
		t.Fatal("hit before put")
	}
	if err := st.Put(hash, specRaw, result); err != nil {
		t.Fatal(err)
	}
	e, ok := st.Get(hash)
	if !ok {
		t.Fatal("miss after put")
	}
	if string(e.Result) != string(result) {
		t.Fatalf("result = %s, want %s", e.Result, result)
	}
	c := st.Snapshot()
	if c.Hits != 1 || c.Misses != 1 || c.Puts != 1 || c.Entries != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestPutRejectsMismatchedSpec(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := mustKey(t, map[string]any{"a": 1})
	if err := st.Put(hash, json.RawMessage(`{"a":2}`), json.RawMessage(`{}`)); err == nil {
		t.Fatal("mismatched spec accepted")
	}
	if err := st.Put("nothex", json.RawMessage(`{}`), json.RawMessage(`{}`)); err == nil {
		t.Fatal("invalid key accepted")
	}
}

func TestCorruptEntryDemotesToMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hash, specRaw := mustKey(t, map[string]any{"x": 1})
	if err := st.Put(hash, specRaw, json.RawMessage(`{"v":42}`)); err != nil {
		t.Fatal(err)
	}
	// Truncate the committed file mid-document.
	path := filepath.Join(dir, "objects", hash[:2], hash+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(hash); ok {
		t.Fatal("torn entry served as a hit")
	}
	if st.Len() != 0 {
		t.Fatalf("broken entry not dropped: len=%d", st.Len())
	}
	if c := st.Snapshot(); c.Corrupt != 1 {
		t.Fatalf("corrupt counter = %d, want 1", c.Corrupt)
	}
	// The store heals: a fresh Put works again.
	if err := st.Put(hash, specRaw, json.RawMessage(`{"v":42}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(hash); !ok {
		t.Fatal("miss after re-put")
	}
}

func TestTamperedSpecDemotesToMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hash, specRaw := mustKey(t, map[string]any{"x": 1})
	if err := st.Put(hash, specRaw, json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// Hand-edit the spec so it no longer hashes to its address.
	path := filepath.Join(dir, "objects", hash[:2], hash+".json")
	edited := []byte(fmt.Sprintf(`{"hash":%q,"spec":{"x":2},"result":{"v":1}}`, hash))
	if err := os.WriteFile(path, edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(hash); ok {
		t.Fatal("tampered entry served as a hit")
	}
}

func TestReopenRestoresEntries(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hash, specRaw := mustKey(t, map[string]any{"k": "v"})
	if err := st.Put(hash, specRaw, json.RawMessage(`{"r":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get(hash); !ok {
		t.Fatal("entry lost across reopen")
	}

	// A deleted index must rebuild from the objects scan.
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st3.Get(hash); !ok {
		t.Fatal("entry lost after index rebuild")
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Size one entry, then cap the store at roughly three of them.
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	put := func(st *Store, i int) string {
		t.Helper()
		spec := map[string]any{"i": i}
		hash, specRaw := mustKey(t, spec)
		if err := st.Put(hash, specRaw, json.RawMessage(`{"v":"0123456789"}`)); err != nil {
			t.Fatal(err)
		}
		return hash
	}
	h0 := put(st, 0)
	sz := st.Snapshot().Bytes
	st.Close()

	st, err = Open(dir, Options{MaxBytes: 3*sz + sz/2})
	if err != nil {
		t.Fatal(err)
	}
	h1, h2 := put(st, 1), put(st, 2) // 3 entries: fits the 3.5-entry cap
	// Touch h1 so h2 is the LRU candidate once h0 (oldest, recency restored
	// from the index) is gone.
	if _, ok := st.Get(h1); !ok {
		t.Fatal("h1 missing")
	}
	h3 := put(st, 3) // exceeds cap → evict h0
	if _, ok := st.Get(h0); ok {
		t.Fatal("h0 survived eviction")
	}
	put(st, 4) // exceeds cap again → evict h2 (h1 was touched)
	if _, ok := st.Get(h2); ok {
		t.Fatal("h2 survived eviction despite being LRU")
	}
	if _, ok := st.Get(h1); !ok {
		t.Fatal("recently-used h1 evicted")
	}
	if _, ok := st.Get(h3); !ok {
		t.Fatal("h3 evicted out of order")
	}
	if c := st.Snapshot(); c.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", c.Evictions)
	}
}

// TestConcurrentSameHashWriters is the satellite regression test: parallel
// writers of the same hash must produce exactly one committed entry, and
// concurrent readers must never observe a torn file — every read is either
// a miss or the complete, valid entry.
func TestConcurrentSameHashWriters(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := map[string]any{"exp": "race", "seed": int64(1)}
	hash, specRaw := mustKey(t, spec)
	result := json.RawMessage(`{"payload":"` + string(make([]byte, 0)) + `0123456789abcdef"}`)

	const writers, readers, rounds = 8, 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := st.Put(hash, specRaw, result); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}()
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*4; r++ {
				e, ok := st.Get(hash)
				if !ok {
					continue // miss is legal before the first commit
				}
				if string(e.Result) != string(result) {
					t.Errorf("torn/wrong read: %q", e.Result)
					return
				}
			}
		}()
	}
	wg.Wait()

	if st.Len() != 1 {
		t.Fatalf("entries = %d, want exactly 1", st.Len())
	}
	// Exactly one file on disk, no leaked temp files.
	var files []string
	filepath.Walk(filepath.Join(dir, "objects"), func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			files = append(files, p)
		}
		return nil
	})
	if len(files) != 1 {
		t.Fatalf("object files = %v, want exactly one", files)
	}
	tmps, _ := os.ReadDir(filepath.Join(dir, "tmp"))
	if len(tmps) != 0 {
		t.Fatalf("%d temp files leaked", len(tmps))
	}
	if c := st.Snapshot(); c.Corrupt != 0 {
		t.Fatalf("corrupt reads observed: %+v", c)
	}
}

func TestMemoize(t *testing.T) {
	var logged []string
	c, err := OpenCache(t.TempDir(), "test", func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type res struct {
		P99   float64 `json:"p99"`
		Flows int     `json:"flows"`
	}
	spec := map[string]any{"exp": "memo", "seed": int64(3)}
	calls := 0
	compute := func() (res, error) {
		calls++
		return res{P99: 1.5, Flows: 10}, nil
	}

	v1, o1, err := Memoize(c, "cell", spec, compute)
	if err != nil || o1 != OutcomeMiss || calls != 1 {
		t.Fatalf("first call: %v %v calls=%d", v1, o1, calls)
	}
	v2, o2, err := Memoize(c, "cell", spec, compute)
	if err != nil || o2 != OutcomeHit || calls != 1 {
		t.Fatalf("second call: %v %v calls=%d err=%v", v2, o2, calls, err)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatalf("hit differs from miss: %+v vs %+v", v1, v2)
	}
	if want := []string{"cache miss cell", "cache hit  cell"}; !reflect.DeepEqual(logged, want) {
		t.Fatalf("log lines = %q, want %q", logged, want)
	}

	// A nil cache — what OpenCache returns for an unset directory — bypasses.
	off, err := OpenCache("", "test", nil)
	if err != nil || off != nil || off.Close() != nil {
		t.Fatalf("OpenCache with no directory = %v, %v; want a nil cache", off, err)
	}
	_, o3, err := Memoize(off, "cell", spec, compute)
	if err != nil || o3 != OutcomeBypass || calls != 2 {
		t.Fatalf("bypass: %v calls=%d", o3, calls)
	}

	// The same spec under another tool tag is a different cell.
	other, err := OpenCache(c.st.dir, "other", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, o, err := Memoize(other, "cell", spec, compute); err != nil || o != OutcomeMiss {
		t.Fatalf("other tool's cell: %v err=%v, want a miss", o, err)
	}

	// NaN results are uncacheable but still returned.
	nan := func() (map[string]float64, error) {
		return map[string]float64{"v": nanValue()}, nil
	}
	_, o4, err := Memoize(c, "nan", map[string]any{"exp": "nan"}, nan)
	if err != nil || o4 != OutcomeUncacheable {
		t.Fatalf("nan outcome = %v err=%v", o4, err)
	}
}

// TestMemoizeGoldenKeys pins where each command-line tool's cells live in a
// -store directory. One cell per tool — the JSON its driver's spec struct
// encodes to (fig4Cell, fig5Panel, fig6Point, failures' and bakeoff's
// cellSpec; the structs live in main packages) — must file under the key
// recorded from the tree that still had internal/memo. A change to the
// {"tool","spec"} preimage would orphan every existing store, and fails
// here first.
func TestMemoizeGoldenKeys(t *testing.T) {
	for _, tc := range []struct{ tool, spec, want string }{
		{"fig4", `{"v":1,"scale":4,"combo":"DRing (su2)","tm":"A2A","util":0.3,"window_sec":0.002,"seed":1,"trials":1,"max_flows":120}`,
			"58807aa8502fd64a3fb1de8ebd69d979e3fcbcb1129974bed71c16e3606e9b23"},
		{"fig5", `{"v":1,"scale":4,"scheme":"su2","ticks":[1,4,8,12,16],"seed":1,"flows_per_host":2}`,
			"6f463efe280d6c7f2508860503ad5e74cc04ea127c4bffa09e1ff4ea3962394b"},
		{"fig6", `{"v":2,"topo":"dring","supernodes":5,"tors":3,"ports":20,"scheme":"ecmp","util":0.5,"window_sec":0.004,"seed":1}`,
			"0fd88fecd4e389b1241199b0198a2981615676fb1420ce1b488ff8fd2c407231"},
		{"failures", `{"v":1,"mode":"live","topo":"dring","supernodes":8,"tors":2,"ports":24,"k":2,"flows":120,"seed":1,"fraction":0.05,` +
			`"fail_at_ns":2000000,"detect_ns":1000000,"round_ns":500000,"window_ns":20000000,"gray_loss":0.05,"gray_rate":1}`,
			"0ef9049166393fc2bf3acbaef970df6a567855e4eb1c792282f7b7ed59907ece"},
		{"bakeoff", `{"v":1,"switches":80,"supernodes":12,"ports":64,"topo":"debruijn","scheme":"selfroute","util":0.2,"window_sec":0.002,` +
			`"max_flows":200,"trials":0,"max_pairs":64,"live_flows":120,"seed":1}`,
			"805e13442d4284c7c232771d4335579b93fe42fbe15ff01509801e2e404771cd"},
	} {
		c, err := OpenCache(t.TempDir(), tc.tool, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Memoize(c, tc.tool, json.RawMessage(tc.spec), func() (int, error) { return 1, nil }); err != nil {
			t.Fatal(err)
		}
		if got := hashes(c.st); len(got) != 1 || got[0] != tc.want {
			t.Errorf("%s cell filed under %v, want %s", tc.tool, got, tc.want)
		}
	}
}

// hashes returns the store's committed keys in sorted order.
func hashes(s *Store) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for h := range s.entries {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// nanValue builds a NaN without a float-literal division the floateq
// checker might one day frown at.
func nanValue() float64 {
	zero := 0.0
	return zero / zero //lint:allow floateq
}
