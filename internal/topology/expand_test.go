package topology

import (
	"errors"
	"testing"
)

func TestExpandDRingSeamLocality(t *testing.T) {
	old := Uniform(8, 2, 24)
	g2, newSpec, rep, err := ExpandDRing(old, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if newSpec.Supernodes() != 9 || g2.N() != 18 {
		t.Fatalf("expanded to %d supernodes, %d switches", newSpec.Supernodes(), g2.N())
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g2.Connected() {
		t.Fatal("expanded DRing disconnected")
	}
	if added, _ := linkChanges(t, old, g2); added == 0 {
		t.Fatal("expansion added no links")
	}
	// Seam locality: only ToRs in the four supernodes near the insertion
	// point (old supernodes 6, 7, 0, 1) can be touched — 8 ToRs max.
	if rep.TouchedSwitches > 8 {
		t.Fatalf("expansion touched %d pre-existing switches, want <= 8", rep.TouchedSwitches)
	}
}

func TestExpandDRingCostIndependentOfRingLength(t *testing.T) {
	gSmall, _, small, err := ExpandDRing(Uniform(6, 2, 24), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	gBig, _, big, err := ExpandDRing(Uniform(16, 2, 24), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	_, removedSmall := linkChanges(t, Uniform(6, 2, 24), gSmall)
	_, removedBig := linkChanges(t, Uniform(16, 2, 24), gBig)
	if removedBig != removedSmall || big.TouchedSwitches != small.TouchedSwitches {
		t.Fatalf("seam cost grew with ring length: small %+v and %d links removed, big %+v and %d", small, removedSmall, big, removedBig)
	}
}

// linkChanges counts the links expanded has that DRing(old) lacks, and
// the links it lacks that DRing(old) has.
func linkChanges(t *testing.T, old DRingSpec, expanded *Graph) (added, removed int) {
	t.Helper()
	g, err := DRing(old)
	if err != nil {
		t.Fatal(err)
	}
	before, after := edgeSet(g), edgeSet(expanded)
	for e := range after {
		if !before[e] {
			added++
		}
	}
	for e := range before {
		if !after[e] {
			removed++
		}
	}
	return added, removed
}

func TestExpandDRingSingleSupernodeKeepsChord(t *testing.T) {
	// Inserting exactly one supernode: the old (m-1, 0) adjacency becomes a
	// ring-distance-2 chord, so those links survive.
	old := Uniform(6, 1, 24)
	gOld, err := DRing(old)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, _, err := ExpandDRing(old, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !gOld.HasLink(5, 0) || !g2.HasLink(5, 0) {
		t.Fatal("seam chord 5-0 should survive a single-supernode insertion")
	}
	// But the old distance-2 chord (5, 1) is now distance 3 and must go.
	if g2.HasLink(5, 1) {
		t.Fatal("stale chord 5-1 survived")
	}
}

func TestExpandDRingRejectsBadInput(t *testing.T) {
	if _, _, _, err := ExpandDRing(Uniform(6, 2, 24), nil); !errors.Is(err, ErrInfeasible) {
		t.Fatal("empty expansion accepted")
	}
	if _, _, _, err := ExpandDRing(Uniform(6, 2, 24), []int{0}); !errors.Is(err, ErrInfeasible) {
		t.Fatal("zero-size supernode accepted")
	}
}
