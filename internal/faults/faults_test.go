package faults

import "testing"

func TestFlapGeneratesCycles(t *testing.T) {
	var s Schedule
	s.Flap(1, 2, 1000, 100, 400, 3)
	if len(s.Events) != 6 {
		t.Fatalf("events = %d, want 6", len(s.Events))
	}
	wantTimes := []int64{1000, 1100, 1500, 1600, 2000, 2100}
	for i, e := range s.Events {
		if e.TimeNS != wantTimes[i] {
			t.Fatalf("event %d at %d, want %d", i, e.TimeNS, wantTimes[i])
		}
		wantKind := LinkDown
		if i%2 == 1 {
			wantKind = LinkUp
		}
		if e.Kind != wantKind {
			t.Fatalf("event %d kind %v, want %v", i, e.Kind, wantKind)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedIsStableAtEqualTimes(t *testing.T) {
	var s Schedule
	s.Restore(5, 0, 1) // inserted first, must apply first at t=5
	s.Cut(5, 0, 1)
	s.Cut(1, 2, 3)
	got := s.Sorted()
	if got[0].TimeNS != 1 || got[1].Kind != LinkUp || got[2].Kind != LinkDown {
		t.Fatalf("sorted order wrong: %+v", got)
	}
	// Sorted must not mutate the schedule.
	if s.Events[0].TimeNS != 5 {
		t.Fatal("Sorted mutated the schedule")
	}
}

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []Schedule{
		{Events: []Event{{TimeNS: -1, Kind: LinkDown, A: 0, B: 1}}},
		{Events: []Event{{TimeNS: 0, Kind: LinkDown, A: 2, B: 2}}},
		{Events: []Event{{TimeNS: 0, Kind: LinkDown, A: -1, B: 2}}},
		{Events: []Event{{TimeNS: 0, Kind: GraySet, A: 0, B: 1, LossProb: 1.0, RateFactor: 1}}},
		{Events: []Event{{TimeNS: 0, Kind: GraySet, A: 0, B: 1, LossProb: 0.1, RateFactor: 0}}},
		{Events: []Event{{TimeNS: 0, Kind: GraySet, A: 0, B: 1, LossProb: 0.1, RateFactor: 1.5}}},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, c.Events)
		}
	}
}
