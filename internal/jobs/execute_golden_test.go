package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// goldenSpec is one spec TestExecuteGoldenDigests pins, by name.
type goldenSpec struct {
	name string
	spec Spec
}

// goldenSpecs covers every registry fabric under its native scheme at
// scale 8, the DRing under every other scheme family, a C-S-skewed cell
// pooled over two trials, and one live run. seed replaces every spec's
// seed.
func goldenSpecs(seed int64) []goldenSpec {
	fct := func(fabric, scheme, tm string, trials int) Spec {
		sp := tinySpec()
		sp.Fabric, sp.Scheme, sp.TM, sp.Trials, sp.Seed = fabric, scheme, tm, trials, seed
		return sp
	}
	return []goldenSpec{
		{"leafspine/su2", fct("leafspine", "su2", "A2A", 0)},
		{"dring/su2", fct("dring", "su2", "A2A", 0)},
		{"rrg/su2", fct("rrg", "su2", "A2A", 0)},
		{"xpander/su2", fct("xpander", "su2", "A2A", 0)},
		{"debruijn/selfroute", fct("debruijn", "selfroute", "A2A", 0)},
		{"rng/spvlb", fct("rng", "spvlb", "A2A", 0)},
		{"dring/ecmp", fct("dring", "ecmp", "A2A", 0)},
		{"dring/wcmp", fct("dring", "wcmp", "A2A", 0)},
		{"dring/vlb", fct("dring", "vlb", "A2A", 0)},
		{"dring/ksp3", fct("dring", "ksp3", "A2A", 0)},
		{"dring/su3", fct("dring", "su3", "A2A", 0)},
		{"rrg/su2/CS-skewed", fct("rrg", "su2", "CS-skewed", 2)},
		{"live/dring", Spec{Kind: "live", Seed: seed, Faults: &FaultSpec{Fraction: 0.05, Flows: 50, WindowNS: 5e6}}},
	}
}

// resultBytes runs a spec through Execute and returns the bytes a job
// would commit.
func resultBytes(t *testing.T, sp Spec) []byte {
	t.Helper()
	sp = sp.Normalized()
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Execute(context.Background(), sp, 1, nil, nil)
	if err != nil {
		t.Fatalf("%+v: %v", sp, err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestExecuteGoldenDigests pins the bytes Execute commits to the store for
// each golden spec at seed 1: a change that moves one of them changes what
// every cached result of that shape would have been, so stored entries
// would no longer be what a re-run computes.
func TestExecuteGoldenDigests(t *testing.T) {
	want := map[string]string{
		"leafspine/su2":      "d70faaee1cc8aabe11bd081620ba7e208e697037f269700e7399191fd41bb0b1",
		"dring/su2":          "791fb67e0e98ebfc54e265f3479b9aa2b32714e810123a71184c4a63bb7fff4f",
		"rrg/su2":            "0ad5b1c2e244a34480c2c6e1b448b2de5683dc3ed8c75b29920c9a356de48645",
		"xpander/su2":        "a26433a5ec3ed2599e43b42800716a83a150206a36ee39238be4192c355d2232",
		"debruijn/selfroute": "0dfb06bcd0698b1b5549342fb4db17bb06e0aeeb0fd4f3fd4edc7f13277afcaa",
		"rng/spvlb":          "9c00aba13706c31223b0683ca69877a423d20567d670f4a64276fe4d0dcad7b9",
		"dring/ecmp":         "44b682db2f733234c5afcce67573e8e5108bce267a7d08c2bcc599066702a3d6",
		"dring/wcmp":         "5b9341c87922892d55588fa9ada71f66fa222b6df1a9aa945f08e160b445f755",
		"dring/vlb":          "a8f928c95d4b375f1a8edab9e10fbd9253197ed854798f30149b011b09ba3f9b",
		"dring/ksp3":         "d4905291366d4632bded1952c5bddaee04d25e495c90cd7bd8bcbe653d48978d",
		"dring/su3":          "9bfaefc8c8a21f7b4bc7bc5e285ac6b5ee3977f32be29e7d1bcd9e10d041fbc2",
		"rrg/su2/CS-skewed":  "99e82b998d7ed76cc211edd7d3a204954014aed3e1f83dda731db99338cf8c90",
		"live/dring":         "f42f9ffb59593500f2493da9352bbbcf19e43acb9d9fe6f1140884d2a41a41b5",
	}
	for _, g := range goldenSpecs(1) {
		sum := sha256.Sum256(resultBytes(t, g.spec))
		got := hex.EncodeToString(sum[:])
		if got != want[g.name] {
			t.Errorf("%s: result digest %s, want %s", g.name, got, want[g.name])
		}
	}
}
