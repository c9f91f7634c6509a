package bgp

import (
	"math/rand"
	"strings"
	"testing"

	"spineless/internal/routing"
	"spineless/internal/topology"
)

func ringFabric(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.DRing(topology.Uniform(5, 2, 16))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildRejectsSmallK(t *testing.T) {
	g := ringFabric(t)
	if _, err := Build(g, 1); err == nil {
		t.Fatal("K=1 accepted")
	}
}

func TestBuildSessionCount(t *testing.T) {
	g := ringFabric(t)
	K := 2
	n, err := Build(g, K)
	if err != nil {
		t.Fatal(err)
	}
	// Per directed physical adjacency: K (rule A) + K-1 (rule B) + 1 (rule C).
	want := 2 * g.Links() * (2 * K)
	if len(n.Sessions) != want {
		t.Fatalf("sessions = %d, want %d", len(n.Sessions), want)
	}
	if len(n.Nodes()) != K*g.N() {
		t.Fatalf("nodes = %d, want %d", len(n.Nodes()), K*g.N())
	}
}

func TestConvergeTheorem1DRing(t *testing.T) {
	g := ringFabric(t)
	for _, K := range []int{2, 3} {
		n, err := Build(g, K)
		if err != nil {
			t.Fatal(err)
		}
		rib, rounds, err := n.Converge()
		if err != nil {
			t.Fatal(err)
		}
		if rounds < 2 {
			t.Fatalf("K=%d converged suspiciously fast (%d rounds)", K, rounds)
		}
		if err := VerifyTheorem1(n, rib); err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
	}
}

func TestConvergeTheorem1LeafSpine(t *testing.T) {
	g, err := topology.LeafSpine(topology.LeafSpineSpec{X: 4, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rib, _, err := n.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyTheorem1(n, rib); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolMatchesFibExactlyK2(t *testing.T) {
	g := ringFabric(t)
	n, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rib, _, err := n.Converge()
	if err != nil {
		t.Fatal(err)
	}
	fib, err := routing.NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := CrossCheckFib(n, rib, fib, true); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolSubsetOfFibK3(t *testing.T) {
	g := ringFabric(t)
	n, err := Build(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	rib, _, err := n.Converge()
	if err != nil {
		t.Fatal(err)
	}
	fib, err := routing.NewShortestUnion(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := CrossCheckFib(n, rib, fib, false); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolOnRRG(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := topology.RRG("rrg", []int{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rib, _, err := n.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyTheorem1(n, rib); err != nil {
		t.Fatal(err)
	}
	fib, err := routing.NewShortestUnion(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := CrossCheckFib(n, rib, fib, true); err != nil {
		t.Fatal(err)
	}
}

func TestCrossCheckRejectsMismatchedK(t *testing.T) {
	g := ringFabric(t)
	n, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rib, _, err := n.Converge()
	if err != nil {
		t.Fatal(err)
	}
	fib, err := routing.NewShortestUnion(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := CrossCheckFib(n, rib, fib, true); err == nil {
		t.Fatal("mismatched K accepted")
	}
}

func TestRibDistanceSelfAndUnreachable(t *testing.T) {
	g := topology.New("disc", 2, 4)
	g.SetServers(0, 1)
	g.SetServers(1, 1)
	n, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rib, _, err := n.Converge()
	if err != nil {
		t.Fatal(err)
	}
	if d := rib.Distance(n, 0, 0); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
	if d := rib.Distance(n, 0, 1); d != -1 {
		t.Fatalf("unreachable distance = %d, want -1", d)
	}
}

func TestGenerateConfigContent(t *testing.T) {
	g := ringFabric(t)
	n, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := n.GenerateConfig(0)
	for _, want := range []string{
		"hostname r0",
		"vrf definition vrf1",
		"vrf definition vrf2",
		"router bgp 64512",
		"maximum-paths 32",
		"network 10.0.0.0 mask 255.255.255.0",
		"route-map PREPEND-1 permit 10",
		"set as-path prepend 64512",
		"route-map DENY-ALL deny 10",
		"address-family ipv4 vrf vrf1",
		"address-family ipv4 vrf vrf2",
	} {
		if !strings.Contains(cfg, want) {
			t.Fatalf("config missing %q:\n%s", want, cfg)
		}
	}
	// Host prefix must live in VRF K only.
	if strings.Contains(strings.SplitN(cfg, "address-family ipv4 vrf vrf2", 2)[0], "network 10.0.0.0") {
		t.Fatal("rack prefix announced outside VRF K")
	}
}

func TestGenerateAllCoversRouters(t *testing.T) {
	g := ringFabric(t)
	n, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	all := n.GenerateAll()
	if len(all) != g.N() {
		t.Fatalf("configs = %d, want %d", len(all), g.N())
	}
	for name, cfg := range all {
		if !strings.Contains(cfg, "hostname "+name) {
			t.Fatalf("config %s has wrong hostname", name)
		}
	}
}

func TestSessionPairsSymmetricAddressing(t *testing.T) {
	g := ringFabric(t)
	n, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	pairs := n.sessionPairs()
	if len(pairs) == 0 {
		t.Fatal("no session pairs")
	}
	seen := map[[2]NodeID]bool{}
	for _, p := range pairs {
		key := [2]NodeID{p.a, p.b}
		if seen[key] {
			t.Fatalf("duplicate session pair %v", key)
		}
		seen[key] = true
		if !nodeLess(p.a, p.b) && p.a != p.b {
			t.Fatalf("pair not canonical: %v", p)
		}
		if p.aOut < 0 && p.bOut < 0 {
			t.Fatalf("session %v useless in both directions", p)
		}
	}
}
