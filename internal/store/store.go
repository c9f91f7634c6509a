package store

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Options tunes an on-disk store.
type Options struct {
	// MaxBytes caps the total size of committed entry files; once exceeded,
	// least-recently-used entries are evicted until the store fits.
	// 0 means unbounded.
	MaxBytes int64
}

// Entry is one committed result: the spec that produced it and the result
// document, both verbatim JSON.
type Entry struct {
	Spec   json.RawMessage `json:"spec"`
	Result json.RawMessage `json:"result"`
}

// envelope is the on-disk entry file layout. The hash is recorded
// redundantly so a file inspected by hand identifies itself, and so loads
// can verify the content still matches its address.
type envelope struct {
	Hash   string          `json:"hash"`
	Spec   json.RawMessage `json:"spec"`
	Result json.RawMessage `json:"result"`
}

// Counters is a point-in-time snapshot of store activity.
type Counters struct {
	Hits      uint64
	Misses    uint64
	Puts      uint64
	Evictions uint64
	Corrupt   uint64 // entries demoted to misses by a failed integrity check
	Entries   int
	Bytes     int64
}

type entryMeta struct {
	Size int64  `json:"size"`
	Used uint64 `json:"used"` // logical recency clock at last access
}

// Store is a content-addressed on-disk result cache. All methods are safe
// for concurrent use; entry files are immutable once committed (rename is
// the commit point), so readers never observe a torn entry.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	clock   uint64
	entries map[string]*entryMeta
	total   int64
	dirty   int // in-memory recency updates not yet flushed to the index
	c       Counters
}

const (
	objectsDir = "objects"
	tmpDir     = "tmp"
	indexFile  = "index.json"
	// indexFlushEvery bounds how many recency-only updates may be lost to a
	// crash before the index is rewritten (losing them is benign: eviction
	// order degrades, correctness does not).
	indexFlushEvery = 32
)

// Open opens (or creates) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	for _, sub := range []string{objectsDir, tmpDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{dir: dir, maxBytes: opts.MaxBytes, entries: map[string]*entryMeta{}}
	if !s.loadIndex() {
		if err := s.rebuildIndex(); err != nil {
			return nil, err
		}
	}
	for _, m := range s.entries {
		s.total += m.Size
	}
	s.c.Entries = len(s.entries)
	s.c.Bytes = s.total
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// loadIndex restores entry metadata from the index file; any problem —
// missing file, torn write, schema drift — reports false so Open falls back
// to a directory scan.
func (s *Store) loadIndex() bool {
	raw, err := os.ReadFile(filepath.Join(s.dir, indexFile))
	if err != nil {
		return false
	}
	var idx struct {
		Clock   uint64                `json:"clock"`
		Entries map[string]*entryMeta `json:"entries"`
	}
	if err := json.Unmarshal(raw, &idx); err != nil || idx.Entries == nil {
		return false
	}
	for h := range idx.Entries {
		if !ValidKey(h) {
			return false
		}
	}
	s.clock = idx.Clock
	s.entries = idx.Entries
	return true
}

// rebuildIndex reconstructs metadata by scanning objects/. Recency is lost;
// entries restart with equal (zero) recency and evict in hash order until
// touched again.
func (s *Store) rebuildIndex() error {
	s.entries = map[string]*entryMeta{}
	root := filepath.Join(s.dir, objectsDir)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		name := d.Name()
		hash := name[:len(name)-len(filepath.Ext(name))]
		if !ValidKey(hash) {
			return nil // stray file; ignore
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with eviction; skip
		}
		s.entries[hash] = &entryMeta{Size: info.Size()}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", root, err)
	}
	return nil
}

// flushIndexLocked rewrites the index file atomically. Callers hold s.mu.
func (s *Store) flushIndexLocked() {
	idx := struct {
		Clock   uint64                `json:"clock"`
		Entries map[string]*entryMeta `json:"entries"`
	}{Clock: s.clock, Entries: s.entries}
	raw, err := json.Marshal(idx)
	if err != nil {
		return // metadata only; next Open rescans
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, tmpDir), "index.*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, filepath.Join(s.dir, indexFile)); err != nil {
		os.Remove(name)
	}
	s.dirty = 0
}

func (s *Store) entryPath(hash string) string {
	return filepath.Join(s.dir, objectsDir, hash[:2], hash+".json")
}

// Get returns the committed entry for hash, if any. A missing, torn or
// hash-mismatched entry file is a cache miss (the offender is removed), so
// a corrupted store heals by re-running instead of failing.
func (s *Store) Get(hash string) (Entry, bool) {
	s.mu.Lock()
	_, known := s.entries[hash]
	s.mu.Unlock()
	if !known {
		s.miss()
		return Entry{}, false
	}
	raw, err := os.ReadFile(s.entryPath(hash))
	if err != nil {
		s.drop(hash, false)
		s.miss()
		return Entry{}, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Hash != hash ||
		len(env.Spec) == 0 || len(env.Result) == 0 || !specMatches(env.Spec, hash) {
		s.drop(hash, true)
		s.miss()
		return Entry{}, false
	}
	s.mu.Lock()
	if m, ok := s.entries[hash]; ok {
		s.clock++
		m.Used = s.clock
		s.dirty++
		if s.dirty >= indexFlushEvery {
			s.flushIndexLocked()
		}
	}
	s.c.Hits++
	s.mu.Unlock()
	return Entry{Spec: env.Spec, Result: env.Result}, true
}

// specMatches verifies the stored spec still canonicalizes to the entry's
// address — the content-addressed integrity check.
func specMatches(spec json.RawMessage, hash string) bool {
	k, err := KeyBytes(spec)
	return err == nil && k == hash
}

func (s *Store) miss() {
	s.mu.Lock()
	s.c.Misses++
	s.mu.Unlock()
}

// drop removes a broken entry (file and metadata).
func (s *Store) drop(hash string, corrupt bool) {
	s.mu.Lock()
	if m, ok := s.entries[hash]; ok {
		s.total -= m.Size
		delete(s.entries, hash)
	}
	if corrupt {
		s.c.Corrupt++
	}
	s.flushIndexLocked()
	s.mu.Unlock()
	os.Remove(s.entryPath(hash))
}

// Put commits (spec, result) under hash. The write is atomic — a temp file
// in the store's own filesystem renamed onto the final path — so concurrent
// writers of the same hash race harmlessly: every rename installs identical
// bytes and the index counts the entry exactly once. The spec must
// canonicalize to hash (callers derive hash via Key on the same spec).
func (s *Store) Put(hash string, spec, result json.RawMessage) error {
	if !ValidKey(hash) {
		return fmt.Errorf("store: invalid key %q", hash)
	}
	if !specMatches(spec, hash) {
		return fmt.Errorf("store: spec does not hash to %s", hash)
	}
	if !json.Valid(result) {
		return fmt.Errorf("store: result for %s is not valid JSON", hash)
	}
	raw, err := json.Marshal(envelope{Hash: hash, Spec: spec, Result: result})
	if err != nil {
		return fmt.Errorf("store: encoding entry %s: %w", hash, err)
	}
	dst := s.entryPath(hash)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, tmpDir), hash[:8]+".*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("store: writing entry %s: %w", hash, err)
	}
	// Sync before rename: the commit point must not expose a file whose
	// bytes are still only in the page cache when the daemon is SIGKILLed.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("store: syncing entry %s: %w", hash, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(name, dst); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: committing entry %s: %w", hash, err)
	}

	s.mu.Lock()
	s.clock++
	if old, ok := s.entries[hash]; ok {
		// Concurrent writer already counted this entry; refresh recency and
		// size (identical content, but sizes could differ if result JSON
		// formatting ever changes between versions).
		s.total += int64(len(raw)) - old.Size
		old.Size = int64(len(raw))
		old.Used = s.clock
	} else {
		s.entries[hash] = &entryMeta{Size: int64(len(raw)), Used: s.clock}
		s.total += int64(len(raw))
	}
	s.c.Puts++
	s.evictLocked()
	s.flushIndexLocked()
	s.mu.Unlock()
	return nil
}

// evictLocked removes least-recently-used entries until the store fits
// MaxBytes. Ties (e.g. after an index rebuild zeroed recency) break by hash
// so eviction order is deterministic. Callers hold s.mu.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 || s.total <= s.maxBytes {
		return
	}
	type cand struct {
		hash string
		m    *entryMeta
	}
	cands := make([]cand, 0, len(s.entries))
	for h, m := range s.entries {
		cands = append(cands, cand{h, m})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].m.Used != cands[j].m.Used {
			return cands[i].m.Used < cands[j].m.Used
		}
		return cands[i].hash < cands[j].hash
	})
	for _, c := range cands {
		if s.total <= s.maxBytes {
			break
		}
		s.total -= c.m.Size
		delete(s.entries, c.hash)
		s.c.Evictions++
		os.Remove(s.entryPath(c.hash))
	}
}

// Invalidate removes the entry for hash, if present. It is the sampled
// re-execution audit's mismatch path: an entry whose stored result no
// longer matches a fresh run of its spec is evidence of corruption (or a
// determinism regression) and must not be served again.
func (s *Store) Invalidate(hash string) {
	if ValidKey(hash) {
		s.drop(hash, true)
	}
}

// Len returns the number of committed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Snapshot returns current activity counters.
func (s *Store) Snapshot() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.c
	c.Entries = len(s.entries)
	c.Bytes = s.total
	return c
}

// Hashes returns the committed keys in sorted order (diagnostics, audit
// sampling).
func (s *Store) Hashes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for h := range s.entries {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Close flushes the index. The store is unusable afterwards only by
// convention; there is no open file state to tear down.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushIndexLocked()
	return nil
}

// Cache is a store opened for one command-line tool: the handle the figure
// drivers and the bake-off memoize their cells through. Keys are namespaced
// by the tool, so several tools can share one directory. A nil *Cache is
// disabled: every cell computes.
type Cache struct {
	st   *Store
	tool string
	logf func(format string, args ...any)
}

// OpenCache opens (or creates) the store at dir for the named tool. An
// empty dir returns a nil (disabled) cache. logf, when non-nil, receives
// one hit/miss line per memoized cell.
func OpenCache(dir, tool string, logf func(format string, args ...any)) (*Cache, error) {
	if dir == "" {
		return nil, nil
	}
	st, err := Open(dir, Options{})
	if err != nil {
		return nil, err
	}
	return &Cache{st: st, tool: tool, logf: logf}, nil
}

// Close flushes the store index. Safe on a nil cache.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	return c.st.Close()
}

// toolSpec is the hash preimage of one memoized cell: the caller's spec
// under its tool tag, so two tools' cells with coincidentally equal specs
// never share a key. Its JSON is part of every committed key.
type toolSpec struct {
	Tool string `json:"tool"`
	Spec any    `json:"spec"`
}

// Outcome classifies one Memoize call.
type Outcome int

const (
	// OutcomeBypass: no cache configured; computed directly.
	OutcomeBypass Outcome = iota
	// OutcomeHit: served from the cache without computing.
	OutcomeHit
	// OutcomeMiss: computed and committed to the cache.
	OutcomeMiss
	// OutcomeUncacheable: computed, but the result could not be encoded or
	// committed (e.g. NaN statistics, a read-only store directory); the
	// returned value is still valid.
	OutcomeUncacheable
)

// String renders the outcome for per-cell hit/miss logging.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	case OutcomeUncacheable:
		return "uncacheable"
	default:
		return "bypass"
	}
}

// Memoize returns the cached result of one cell, computing and committing
// it on a miss. spec must hold everything the result depends on and nothing
// result-neutral; label only names the cell in the hit/miss log line. A nil
// cache computes directly (OutcomeBypass). On a hit the value is decoded
// from the committed bytes, so hit and miss observers see results that
// round-trip through the identical JSON document.
func Memoize[T any](c *Cache, label string, spec any, compute func() (T, error)) (v T, outcome Outcome, err error) {
	if c == nil {
		v, err = compute()
		return v, OutcomeBypass, err
	}
	defer func() {
		if err == nil && c.logf != nil {
			c.logf("cache %-4s %s", outcome, label)
		}
	}()
	var zero T
	cell := toolSpec{Tool: c.tool, Spec: spec}
	hash, err := Key(cell)
	if err != nil {
		return zero, OutcomeBypass, err
	}
	if e, ok := c.st.Get(hash); ok {
		var hit T
		if err := json.Unmarshal(e.Result, &hit); err == nil {
			return hit, OutcomeHit, nil
		}
		// Entry decodes as JSON but not as T (schema drift): recompute and
		// overwrite below.
	}
	v, err = compute()
	if err != nil {
		return zero, OutcomeMiss, err
	}
	specRaw, err := Canonical(cell)
	if err != nil {
		return v, OutcomeUncacheable, nil
	}
	resRaw, err := json.Marshal(v)
	if err != nil {
		return v, OutcomeUncacheable, nil
	}
	if err := c.st.Put(hash, specRaw, resRaw); err != nil {
		return v, OutcomeUncacheable, nil
	}
	return v, OutcomeMiss, nil
}
