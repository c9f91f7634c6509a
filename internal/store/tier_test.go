package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// putResult commits result under spec's key and returns the key.
func putResult(t *testing.T, st *Store, spec any, result string) string {
	t.Helper()
	hash, specRaw := mustKey(t, spec)
	if err := st.Put(hash, specRaw, json.RawMessage(result)); err != nil {
		t.Fatal(err)
	}
	return hash
}

// inMemory lists the hashes holding a verified in-memory copy, sorted, and
// checks the tier's byte count against them.
func inMemory(t *testing.T, st *Store) []string {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []string
	var bytes int64
	for h, m := range st.entries {
		if m.mem != nil {
			out = append(out, h)
			bytes += m.mem.memSize()
		}
	}
	if bytes != st.memBytes {
		t.Fatalf("tier counts %d bytes, its copies hold %d", st.memBytes, bytes)
	}
	if st.memBytes > st.memBudget {
		t.Fatalf("tier holds %d bytes, over its %d-byte budget", st.memBytes, st.memBudget)
	}
	sort.Strings(out)
	return out
}

func TestTierInvalidateMisses(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	hash := putResult(t, st, map[string]any{"x": 1}, `{"v":1}`)
	if _, ok := st.Get(hash); !ok {
		t.Fatal("miss after put")
	}
	if got := inMemory(t, st); len(got) != 1 {
		t.Fatalf("verified entry not kept in memory: %v", got)
	}
	st.Invalidate(hash)
	if _, ok := st.Get(hash); ok {
		t.Fatal("invalidated entry served from memory")
	}
	if got := inMemory(t, st); len(got) != 0 {
		t.Fatalf("invalidated entry still in memory: %v", got)
	}
}

func TestTierPutReplacesCopy(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := map[string]any{"x": 1}
	hash := putResult(t, st, spec, `{"v":1}`)
	if e, ok := st.Get(hash); !ok || string(e.Result) != `{"v":1}` {
		t.Fatalf("first get = %s, %v", e.Result, ok)
	}
	putResult(t, st, spec, `{"v":2}`)
	if got := inMemory(t, st); len(got) != 0 {
		t.Fatalf("put kept the old copy in memory: %v", got)
	}
	if e, ok := st.Get(hash); !ok || string(e.Result) != `{"v":2}` {
		t.Fatalf("get after overwrite = %s, %v; want {\"v\":2}", e.Result, ok)
	}
	if e, ok := st.Get(hash); !ok || string(e.Result) != `{"v":2}` {
		t.Fatalf("warm get after overwrite = %s, %v; want {\"v\":2}", e.Result, ok)
	}
	if c := st.Snapshot(); c.Entries != 1 || c.Hits != 3 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestTierEvictionDropsCopy(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h0 := putResult(t, st, map[string]any{"i": 0}, `{"v":"0123456789"}`)
	sz := st.Snapshot().Bytes
	st.Close()

	st, err = Open(dir, Options{MaxBytes: 2*sz + sz/2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(h0); !ok {
		t.Fatal("h0 missing")
	}
	putResult(t, st, map[string]any{"i": 1}, `{"v":"0123456789"}`)
	putResult(t, st, map[string]any{"i": 2}, `{"v":"0123456789"}`) // over the cap: evicts h0
	if c := st.Snapshot(); c.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions)
	}
	if got := inMemory(t, st); len(got) != 0 {
		t.Fatalf("evicted entry still in memory: %v", got)
	}
	if _, ok := st.Get(h0); ok {
		t.Fatal("evicted entry served from memory")
	}
}

// TestTierBudget: the tier never holds more than its budget, and trims the
// least recently used copies first — by Used, then by hash on ties.
func TestTierBudget(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var hs []string
	for i := 0; i < 6; i++ {
		hs = append(hs, putResult(t, st, map[string]any{"i": i}, `{"v":"0123456789"}`))
	}
	e, ok := st.Get(hs[0])
	if !ok {
		t.Fatal("miss")
	}
	one := e.memSize() // every entry is the same size
	st.mu.Lock()
	st.memBudget = 3 * one
	st.mu.Unlock()

	// The model: the tier holds the three most recently read entries.
	recent := []int{0}
	for _, i := range []int{1, 2, 0, 3, 4, 5, 1, 4, 2, 0, 5, 5, 3, 0, 1, 2, 3, 4, 5, 0, 0, 3, 5, 1, 2, 4} {
		if _, ok := st.Get(hs[i]); !ok {
			t.Fatalf("get %d missed", i)
		}
		for j, r := range recent {
			if r == i {
				recent = append(recent[:j], recent[j+1:]...)
				break
			}
		}
		if recent = append(recent, i); len(recent) > 3 {
			recent = recent[1:]
		}
		var want []string
		for _, r := range recent {
			want = append(want, hs[r])
		}
		sort.Strings(want)
		if got := inMemory(t, st); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after get %d: in memory %v, want %v", i, got, want)
		}
	}

	// Equal recency (as after an index rebuild) trims in hash order.
	st.mu.Lock()
	for _, m := range st.entries {
		m.Used = 0
	}
	st.memBudget = one
	st.trimMemLocked()
	st.mu.Unlock()
	held := []string{hs[recent[0]], hs[recent[1]], hs[recent[2]]}
	sort.Strings(held)
	if got := inMemory(t, st); len(got) != 1 || got[0] != held[2] {
		t.Fatalf("equal-recency trim kept %v, want the largest hash of %v", got, held)
	}

	// An entry bigger than the whole budget is served but never kept.
	st.mu.Lock()
	st.memBudget = one - 1
	st.trimMemLocked()
	st.mu.Unlock()
	if _, ok := st.Get(hs[5]); !ok {
		t.Fatal("over-budget entry missed")
	}
	if got := inMemory(t, st); len(got) != 0 {
		t.Fatalf("over-budget entry kept in memory: %v", got)
	}
}

// TestTierInstallLosesToRacingPut commits a new result while a Get is
// between its disk read and its install: the Get may still return what it
// read, but must not keep it, so the next Get serves the new result.
func TestTierInstallLosesToRacingPut(t *testing.T) {
	defer func() { testHookRead = nil }()
	for _, invalidate := range []bool{false, true} {
		st, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		spec := map[string]any{"x": 1}
		hash := putResult(t, st, spec, `{"v":1}`)
		testHookRead = func() {
			testHookRead = nil
			if invalidate {
				st.Invalidate(hash)
			}
			putResult(t, st, spec, `{"v":2}`)
		}
		if e, ok := st.Get(hash); !ok || string(e.Result) != `{"v":1}` {
			t.Fatalf("invalidate=%v: racing get = %s, %v; want what it read", invalidate, e.Result, ok)
		}
		if got := inMemory(t, st); len(got) != 0 {
			t.Fatalf("invalidate=%v: a read that lost to a Put was kept in memory", invalidate)
		}
		for i := 0; i < 2; i++ {
			if e, ok := st.Get(hash); !ok || string(e.Result) != `{"v":2}` {
				t.Fatalf("invalidate=%v: get after the racing put = %s, %v; want {\"v\":2}", invalidate, e.Result, ok)
			}
		}
	}
}

// TestTierNeverInstallsOlderBytes races readers against a writer that
// replaces one hash's result with ever newer versions: once a Put has
// returned, no Get may serve an older version, from disk or from memory.
func TestTierNeverInstallsOlderBytes(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := map[string]any{"exp": "tier-race"}
	hash := putResult(t, st, spec, `{"v":0}`)

	const readers, versions = 4, 300
	var latest atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				floor := latest.Load()
				e, ok := st.Get(hash)
				if !ok {
					continue // between an Invalidate and its Put
				}
				var got struct{ V int64 }
				if err := json.Unmarshal(e.Result, &got); err != nil {
					t.Errorf("torn read %q: %v", e.Result, err)
					return
				}
				if got.V < floor {
					t.Errorf("served version %d after version %d was committed", got.V, floor)
					return
				}
			}
		}()
	}
	for v := int64(1); v <= versions; v++ {
		if v%2 == 1 {
			st.Invalidate(hash)
		}
		putResult(t, st, spec, fmt.Sprintf(`{"v":%d}`, v))
		latest.Store(v)
	}
	stop.Store(true)
	wg.Wait()

	for i := 0; i < 2; i++ {
		want := fmt.Sprintf(`{"v":%d}`, versions)
		if e, ok := st.Get(hash); !ok || string(e.Result) != want {
			t.Fatalf("final get = %s, %v; want %s", e.Result, ok, want)
		}
	}
	inMemory(t, st)
	if st.Len() != 1 {
		t.Fatalf("entries = %d, want 1", st.Len())
	}
}

// TestFailedReadKeepsEntry: a read error other than a missing file (here
// EISDIR, which works as root) is a miss that keeps the committed entry —
// it may be transient, such as EMFILE under load.
func TestFailedReadKeepsEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hash := putResult(t, st, map[string]any{"x": 1}, `{"v":1}`)
	path := filepath.Join(dir, "objects", hash[:2], hash+".json")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := st.Get(hash); ok {
			t.Fatal("unreadable entry served as a hit")
		}
		if st.Len() != 1 {
			t.Fatalf("unreadable entry dropped: len=%d", st.Len())
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("unreadable entry's path removed: %v", err)
		}
	}
	if c := st.Snapshot(); c.Misses != 2 || c.Corrupt != 0 {
		t.Fatalf("counters = %+v", c)
	}

	// A missing file still drops the entry.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(hash); ok || st.Len() != 0 {
		t.Fatalf("missing entry file: hit=%v len=%d", ok, st.Len())
	}
}

// TestGetWarmAllocs pins the memory hit: a Get of an entry already verified
// allocates nothing.
func TestGetWarmAllocs(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	hash := putResult(t, st, map[string]any{"x": 1}, `{"v":1}`)
	if _, ok := st.Get(hash); !ok {
		t.Fatal("miss after put")
	}
	hit := true
	n := testing.AllocsPerRun(100, func() {
		_, ok := st.Get(hash)
		hit = hit && ok
	})
	if !hit {
		t.Fatal("warm get missed")
	}
	if n != 0 {
		t.Fatalf("warm Get allocates %.1f times per call, want 0", n)
	}
}
