package bgp

import (
	"fmt"
	"sort"
	"strings"
)

// sessionPair is an unordered BGP adjacency between two VRF instances on
// neighboring routers; one TCP session carries advertisements both ways,
// with a per-direction outbound policy (prepend count, or deny when the §4
// cost is infinite).
type sessionPair struct {
	a, b NodeID
	// aOut is a's outbound policy toward b: prepend count, or -1 for deny.
	aOut, bOut int
}

// sessionPairs folds the directed advertisement arcs into bidirectional
// sessions, deterministically ordered.
func (n *Network) sessionPairs() []sessionPair {
	idx := map[[2]NodeID]*sessionPair{}
	canon := func(x, y NodeID) ([2]NodeID, bool) {
		if x.Router < y.Router || (x.Router == y.Router && x.VRF <= y.VRF) {
			return [2]NodeID{x, y}, false
		}
		return [2]NodeID{y, x}, true
	}
	for _, s := range n.Sessions {
		// Advertiser is s.To: its outbound policy toward s.From prepends.
		key, swapped := canon(s.From, s.To)
		p, ok := idx[key]
		if !ok {
			p = &sessionPair{a: key[0], b: key[1], aOut: -1, bOut: -1}
			idx[key] = p
		}
		if swapped {
			// key[0] == s.To: the advertiser is side a.
			p.aOut = s.Prepend
		} else {
			p.bOut = s.Prepend
		}
	}
	out := make([]sessionPair, 0, len(idx))
	for _, p := range idx {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.a != b.a {
			return nodeLess(a.a, b.a)
		}
		return nodeLess(a.b, b.b)
	})
	return out
}

func nodeLess(x, y NodeID) bool {
	if x.Router != y.Router {
		return x.Router < y.Router
	}
	return x.VRF < y.VRF
}

// pairAddr allocates the /31 of session pair index i and returns the two
// endpoint addresses (side a gets the even address).
func pairAddr(i int) (a, b string) {
	// 172.16.0.0/12 leaves room for 2^19 /31s.
	hi := i / (128 * 256)
	mid := (i / 128) % 256
	lo := (i % 128) * 2
	return fmt.Sprintf("172.%d.%d.%d", 16+hi, mid, lo),
		fmt.Sprintf("172.%d.%d.%d", 16+hi, mid, lo+1)
}

// GenerateConfig renders a Cisco-IOS-style configuration for one router:
// VRF definitions, the loopback holding the rack prefix in VRF K, one
// subinterface per BGP session, per-VRF BGP address families with
// "maximum-paths" multipath, and the prepend route-maps encoding the §4
// costs. It is the artifact the paper generates by script for its GNS3
// prototype.
func (n *Network) GenerateConfig(router int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hostname r%d\n!\n", router)
	for v := 1; v <= n.K; v++ {
		fmt.Fprintf(&b, "vrf definition vrf%d\n address-family ipv4\n exit-address-family\n!\n", v)
	}
	// Host-facing prefix lives in VRF K.
	fmt.Fprintf(&b, "interface Loopback0\n vrf forwarding vrf%d\n ip address 10.%d.%d.1 255.255.255.0\n!\n",
		n.K, router/256, router%256)

	pairs := n.sessionPairs()
	type nbr struct {
		vrf    int
		peerIP string
		peerAS int
		policy int // prepend count, -1 = deny
	}
	var nbrs []nbr
	sub := 0
	for i, p := range pairs {
		var local, peer NodeID
		var localIP, peerIP string
		var policy int
		aIP, bIP := pairAddr(i)
		switch router {
		case p.a.Router:
			local, peer, localIP, peerIP, policy = p.a, p.b, aIP, bIP, p.aOut
		case p.b.Router:
			local, peer, localIP, peerIP, policy = p.b, p.a, bIP, aIP, p.bOut
		default:
			continue
		}
		sub++
		ifName := fmt.Sprintf("Ethernet0/0.%d", sub)
		fmt.Fprintf(&b, "interface %s\n encapsulation dot1Q %d\n vrf forwarding vrf%d\n ip address %s 255.255.255.254\n!\n",
			ifName, sub, local.VRF, localIP)
		nbrs = append(nbrs, nbr{vrf: local.VRF, peerIP: peerIP, peerAS: AS(peer.Router), policy: policy})
	}

	fmt.Fprintf(&b, "router bgp %d\n bgp log-neighbor-changes\n", AS(router))
	for v := 1; v <= n.K; v++ {
		fmt.Fprintf(&b, " address-family ipv4 vrf vrf%d\n", v)
		fmt.Fprintf(&b, "  maximum-paths 32\n")
		if v == n.K {
			fmt.Fprintf(&b, "  network 10.%d.%d.0 mask 255.255.255.0\n", router/256, router%256)
		}
		for _, x := range nbrs {
			if x.vrf != v {
				continue
			}
			fmt.Fprintf(&b, "  neighbor %s remote-as %d\n", x.peerIP, x.peerAS)
			fmt.Fprintf(&b, "  neighbor %s activate\n", x.peerIP)
			switch {
			case x.policy < 0:
				fmt.Fprintf(&b, "  neighbor %s route-map DENY-ALL out\n", x.peerIP)
			case x.policy > 0:
				fmt.Fprintf(&b, "  neighbor %s route-map PREPEND-%d out\n", x.peerIP, x.policy)
			}
		}
		fmt.Fprintf(&b, " exit-address-family\n")
	}
	fmt.Fprintf(&b, "!\n")

	// Route maps: deny-all plus every prepend depth used by this router.
	depths := map[int]bool{}
	for _, x := range nbrs {
		if x.policy > 0 {
			depths[x.policy] = true
		}
	}
	var ds []int
	for d := range depths {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	for _, d := range ds {
		fmt.Fprintf(&b, "route-map PREPEND-%d permit 10\n set as-path prepend%s\n!\n",
			d, strings.Repeat(fmt.Sprintf(" %d", AS(router)), d))
	}
	fmt.Fprintf(&b, "route-map DENY-ALL deny 10\n!\nend\n")
	return b.String()
}

// GenerateAll renders every router's configuration, keyed "r<id>".
func (n *Network) GenerateAll() map[string]string {
	out := make(map[string]string, n.Topo.N())
	for r := 0; r < n.Topo.N(); r++ {
		out[fmt.Sprintf("r%d", r)] = n.GenerateConfig(r)
	}
	return out
}
