package lint

import (
	"strings"
	"testing"
)

// TestHotPathNetsimAgreesWithAllocPins runs the hotpath checker over the
// real netsim package: the event-loop handlers are annotated //lint:hotpath,
// and netsim's TestNilTracerAddsNoAllocs / BenchmarkNetsimEvents pin the
// same property dynamically (AllocsPerRun), so the static walk reporting
// zero findings is the two tools agreeing, not the checker finding nothing
// to look at — the sanity assertions on the call graph rule the latter out.
func TestHotPathNetsimAgreesWithAllocPins(t *testing.T) {
	fset, pkgs, err := Load("../..", []string{"./internal/netsim"})
	if err != nil {
		t.Fatal(err)
	}
	prog := NewProgram(fset, pkgs)

	const root = "(*spineless/internal/netsim.Simulator).sendSegment"
	if prog.Graph.Nodes[root] == nil {
		t.Fatalf("call graph has no node for %s; the walk would be vacuous", root)
	}
	callees := prog.Graph.Callees(root)
	for _, want := range []string{
		"(*spineless/internal/netsim.Simulator).alloc",
		"(*spineless/internal/netsim.Simulator).enterLink",
	} {
		found := false
		for _, c := range callees {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("sendSegment's callees %v lack %s; hot-path reachability is broken", callees, want)
		}
	}

	// The simulator's push must reach the lane push, so the walk covers the
	// event queue (and its annotated ring growth) rather than stopping at
	// the Simulator wrapper.
	const push = "(*spineless/internal/netsim.Simulator).push"
	const lanePush = "(*spineless/internal/netsim.eventQueue).push"
	found := false
	for _, c := range prog.Graph.Callees(push) {
		if c == lanePush {
			found = true
		}
	}
	if !found {
		t.Fatalf("%s's callees %v lack %s", push, prog.Graph.Callees(push), lanePush)
	}

	var hot []string
	for _, f := range prog.Run(nil, []ProgramChecker{&HotPath{}}) {
		if f.Check == "hotpath" {
			hot = append(hot, f.String())
		}
	}
	if len(hot) > 0 {
		t.Errorf("hotpath findings on netsim contradict the AllocsPerRun pins:\n%s",
			strings.Join(hot, "\n"))
	}
}
