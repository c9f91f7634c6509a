package bgp

import (
	"strings"
	"testing"

	"spineless/internal/topology"
)

func TestConfigNeighborCountsMatchSessions(t *testing.T) {
	g := ringFabric(t)
	n, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Each unordered session pair involving router r appears as exactly one
	// "remote-as" neighbor statement in r's config.
	pairs := n.sessionPairs()
	for r := 0; r < g.N(); r++ {
		want := 0
		for _, p := range pairs {
			if p.a.Router == r || p.b.Router == r {
				want++
			}
		}
		cfg := n.GenerateConfig(r)
		got := strings.Count(cfg, "remote-as")
		if got != want {
			t.Fatalf("router %d: %d neighbor statements, want %d", r, got, want)
		}
		// Every neighbor also has an activate line.
		if strings.Count(cfg, "activate") != want {
			t.Fatalf("router %d: activate count mismatch", r)
		}
	}
}

func TestConfigSubinterfacesDistinct(t *testing.T) {
	g := ringFabric(t)
	n, err := Build(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := n.GenerateConfig(0)
	// Every subinterface id appears exactly once.
	seen := map[string]bool{}
	for _, line := range strings.Split(cfg, "\n") {
		if strings.HasPrefix(line, "interface Ethernet0/0.") {
			if seen[line] {
				t.Fatalf("duplicate %q", line)
			}
			seen[line] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("no subinterfaces emitted")
	}
	// K=3 must define three VRFs.
	for _, vrf := range []string{"vrf1", "vrf2", "vrf3"} {
		if !strings.Contains(cfg, "vrf definition "+vrf) {
			t.Fatalf("missing %s", vrf)
		}
	}
}

func TestConfigAddressesUniqueAcrossRouters(t *testing.T) {
	g, err := topology.DRing(topology.Uniform(5, 1, 12))
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for name, cfg := range n.GenerateAll() {
		for _, line := range strings.Split(cfg, "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "ip address 172.") {
				if prev, dup := seen[line]; dup {
					t.Fatalf("address reused by %s and %s: %q", prev, name, line)
				}
				seen[line] = name
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("no session addresses emitted")
	}
}

func TestASNumbering(t *testing.T) {
	if AS(0) != 64512 || AS(79) != 64591 {
		t.Fatalf("AS numbering broken: %d %d", AS(0), AS(79))
	}
}
