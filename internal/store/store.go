package store

import (
	"encoding/json"
	"errors"
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
// document, both verbatim JSON. An Entry returned by Get shares its bytes
// with the store's in-memory copy and with every other caller that gets the
// same hash: treat them as read-only.
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
	// mem is the entry as last read from disk and verified, nil until a Get
	// verifies it. Put gives a hash fresh metadata rather than updating it in
	// place, so a Get that read the file before a Put or an Invalidate sees
	// its meta replaced and does not install what it read.
	mem *Entry
}

// memSize is what an in-memory copy charges against the tier's budget.
func (e *Entry) memSize() int64 { return int64(len(e.Spec) + len(e.Result)) }

// Store is a content-addressed on-disk result cache. All methods are safe
// for concurrent use; entry files are immutable once committed (rename is
// the commit point), so readers never observe a torn entry.
type Store struct {
	dir      string
	maxBytes int64

	mu        sync.Mutex
	clock     uint64
	entries   map[string]*entryMeta
	total     int64
	memBytes  int64 // bytes held by verified in-memory copies
	memBudget int64 // cap on memBytes: memTierBudget unless a test lowers it
	c         Counters
}

const (
	objectsDir = "objects"
	tmpDir     = "tmp"
	indexFile  = "index.json"
	// memTierBudget caps the bytes of verified entries Get keeps in
	// memory; over it, the least recently used copies go first (their files
	// stay on disk).
	memTierBudget = 64 << 20
)

// Open opens (or creates) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	for _, sub := range []string{objectsDir, tmpDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{dir: dir, maxBytes: opts.MaxBytes, memBudget: memTierBudget, entries: map[string]*entryMeta{}}
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
	for h, m := range idx.Entries {
		if !ValidKey(h) || m == nil || m.Size < 0 {
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
}

func (s *Store) entryPath(hash string) string {
	return filepath.Join(s.dir, objectsDir, hash[:2], hash+".json")
}

// Get returns the committed entry for hash, if any. A missing, torn or
// hash-mismatched entry file is a cache miss (the offender is removed), so
// a corrupted store heals by re-running instead of failing. Any other read
// error is a miss that keeps the entry: it may well be transient.
//
// The first hit reads and verifies the file; later hits return the
// verified copy from memory until a Put, Invalidate or eviction replaces
// it. The returned bytes are shared: callers must not modify them.
// Recency is updated in memory only and reaches index.json with the next
// Put, drop or Close.
func (s *Store) Get(hash string) (Entry, bool) {
	s.mu.Lock()
	m, known := s.entries[hash]
	if !known {
		s.c.Misses++
		s.mu.Unlock()
		return Entry{}, false
	}
	if m.mem != nil {
		s.clock++
		m.Used = s.clock
		s.c.Hits++
		e := *m.mem
		s.mu.Unlock()
		return e, true
	}
	s.mu.Unlock()

	raw, err := os.ReadFile(s.entryPath(hash))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.drop(hash, m, false)
		}
		s.miss()
		return Entry{}, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Hash != hash ||
		len(env.Spec) == 0 || len(env.Result) == 0 || !specMatches(env.Spec, hash) {
		s.drop(hash, m, true)
		s.miss()
		return Entry{}, false
	}
	if testHookRead != nil {
		testHookRead()
	}
	e := &Entry{Spec: env.Spec, Result: env.Result}
	s.mu.Lock()
	if s.entries[hash] == m { // no Put or Invalidate since the read
		s.clock++
		m.Used = s.clock
		if m.mem == nil && e.memSize() <= s.memBudget { // a concurrent Get may have installed first
			m.mem = e
			s.memBytes += e.memSize()
			s.trimMemLocked()
		}
	}
	s.c.Hits++
	s.mu.Unlock()
	return *e, true
}

// testHookRead, when a test sets it, runs in Get between a verified disk
// read and the install: where a racing Put or Invalidate lands.
var testHookRead func()

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

// drop removes an entry's file and metadata; want, when non-nil, is the
// metadata the caller read the entry under, and the entry is kept if a Put
// or Invalidate has replaced it since (the file is then no longer the one
// the caller found broken).
func (s *Store) drop(hash string, want *entryMeta, corrupt bool) {
	s.mu.Lock()
	if corrupt {
		s.c.Corrupt++
	}
	m, ok := s.entries[hash]
	if want != nil && m != want {
		s.mu.Unlock()
		return
	}
	if ok {
		s.forgetLocked(hash, m)
	}
	s.flushIndexLocked()
	s.mu.Unlock()
	os.Remove(s.entryPath(hash))
}

// forgetLocked removes hash's metadata and its in-memory copy. Callers
// hold s.mu.
func (s *Store) forgetLocked(hash string, m *entryMeta) {
	s.total -= m.Size
	s.dropMemLocked(m)
	delete(s.entries, hash)
}

// dropMemLocked releases m's in-memory copy. Callers hold s.mu.
func (s *Store) dropMemLocked(m *entryMeta) {
	if m.mem != nil {
		s.memBytes -= m.mem.memSize()
		m.mem = nil
	}
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
		// Another writer already counted this entry. Replace its metadata,
		// in-memory copy included: the bytes may differ (an overwrite after
		// schema drift), and a Get still reading the old file must not
		// install it.
		s.forgetLocked(hash, old)
	}
	s.entries[hash] = &entryMeta{Size: int64(len(raw)), Used: s.clock}
	s.total += int64(len(raw))
	s.c.Puts++
	s.evictLocked()
	s.flushIndexLocked()
	s.mu.Unlock()
	return nil
}

// evictLocked removes least-recently-used entries until the store fits
// MaxBytes. Callers hold s.mu.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 || s.total <= s.maxBytes {
		return
	}
	for _, c := range s.lruLocked(false) {
		if s.total <= s.maxBytes {
			break
		}
		s.forgetLocked(c.hash, c.m)
		s.c.Evictions++
		os.Remove(s.entryPath(c.hash))
	}
}

// trimMemLocked releases least-recently-used in-memory copies until the
// tier fits its budget; the entries stay committed on disk. Callers hold
// s.mu.
func (s *Store) trimMemLocked() {
	if s.memBytes <= s.memBudget {
		return
	}
	for _, c := range s.lruLocked(true) {
		if s.memBytes <= s.memBudget {
			break
		}
		s.dropMemLocked(c.m)
	}
}

type lruCand struct {
	hash string
	m    *entryMeta
}

// lruLocked lists entries (only those with an in-memory copy when inMem)
// least recently used first. Ties (e.g. after an index rebuild zeroed
// recency) break by hash so the order is deterministic. Callers hold s.mu.
func (s *Store) lruLocked(inMem bool) []lruCand {
	cands := make([]lruCand, 0, len(s.entries))
	for h, m := range s.entries {
		if !inMem || m.mem != nil {
			cands = append(cands, lruCand{h, m})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].m.Used != cands[j].m.Used {
			return cands[i].m.Used < cands[j].m.Used
		}
		return cands[i].hash < cands[j].hash
	})
	return cands
}

// Invalidate removes the entry for hash, if present. It is the sampled
// re-execution audit's mismatch path: an entry whose stored result no
// longer matches a fresh run of its spec is evidence of corruption (or a
// determinism regression) and must not be served again.
func (s *Store) Invalidate(hash string) {
	if ValidKey(hash) {
		s.drop(hash, nil, true)
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
