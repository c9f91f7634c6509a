package telemetry

import (
	"sort"
	"sync"
)

// Hub is the service-side registry of live recorders: spinelessd registers
// one recorder per telemetry-enabled running job, and the /v1/telemetry
// stream snapshots the hub on every frame. Registration is keyed by job id;
// entries unregister when the job settles (the release func), so the hub
// only ever holds runs in flight.
type Hub struct {
	mu   sync.Mutex
	recs map[string]*Recorder
}

// NewHub builds an empty hub.
func NewHub() *Hub {
	return &Hub{recs: make(map[string]*Recorder)}
}

// Register adds rec under id and returns a release func that removes it
// (idempotent). A second Register with the same id replaces the first; the
// first's release then only removes its own registration.
func (h *Hub) Register(id string, rec *Recorder) func() {
	h.mu.Lock()
	h.recs[id] = rec
	h.mu.Unlock()
	return func() {
		h.mu.Lock()
		if h.recs[id] == rec {
			delete(h.recs, id)
		}
		h.mu.Unlock()
	}
}

// Entry is one job's live telemetry in a hub snapshot.
type Entry struct {
	ID   string
	Snap *Snapshot
}

// Snapshot captures every registered recorder, sorted by id so frames are
// stable for consumers and tests.
func (h *Hub) Snapshot() []Entry {
	h.mu.Lock()
	ids := make([]string, 0, len(h.recs))
	recs := make([]*Recorder, 0, len(h.recs))
	for id := range h.recs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		recs = append(recs, h.recs[id])
	}
	h.mu.Unlock()

	out := make([]Entry, len(ids))
	for i, id := range ids {
		out[i] = Entry{ID: id, Snap: recs[i].Snapshot()}
	}
	return out
}

// Get returns the recorder registered under id, or nil.
func (h *Hub) Get(id string) *Recorder {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.recs[id]
}
