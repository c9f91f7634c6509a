// Command migrate plans the §5.1 rewiring as an operational runbook: a
// sequence of single cable moves from a live leaf-spine to its flat
// replacement (RRG or DRing) such that the fabric stays connected after
// every move, plus the server-port reassignments.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"spineless/internal/core"
	"spineless/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("migrate: ")
	var (
		paper  = flag.Bool("paper", false, "full-scale §5.1 fabrics")
		scale  = flag.Int("scale", 4, "scale-down factor")
		target = flag.String("to", "rrg", "target fabric: rrg, dring, or another trio-budget fabric with the leaf-spine's switch count")
		seed   = flag.Int64("seed", 1, "random seed (rrg and flat-fabric wiring)")
		show   = flag.Int("show", 12, "print at most this many steps (0 = all)")
	)
	flag.Parse()

	fs, err := core.TrioFabrics(*paper, *scale, rand.New(rand.NewSource(*seed)))
	if err != nil {
		log.Fatal(err)
	}
	to, err := fs.Fabric(*target, *seed)
	if err != nil {
		log.Fatal(err)
	}

	plan, err := topology.PlanMigration(fs.LeafSpine, to)
	if err != nil {
		log.Fatal(err)
	}
	// Verify the plan before printing it as a runbook.
	if _, err := plan.Apply(fs.LeafSpine, to); err != nil {
		log.Fatalf("plan failed verification: %v", err)
	}

	fmt.Printf("migration: %v → %v\n", fs.LeafSpine, to)
	fmt.Printf("%d cable moves, %d server-port reassignments; fabric stays connected after every step\n\n",
		len(plan.Steps), plan.ServerMoves)
	limit := *show
	if limit == 0 || limit > len(plan.Steps) {
		limit = len(plan.Steps)
	}
	for i := 0; i < limit; i++ {
		s := plan.Steps[i]
		switch {
		case s.RemoveA >= 0 && s.AddA >= 0:
			fmt.Printf("step %4d: move cable  s%d—s%d  →  s%d—s%d\n", i+1, s.RemoveA, s.RemoveB, s.AddA, s.AddB)
		case s.AddA >= 0:
			fmt.Printf("step %4d: add cable            →  s%d—s%d\n", i+1, s.AddA, s.AddB)
		default:
			fmt.Printf("step %4d: remove cable s%d—s%d\n", i+1, s.RemoveA, s.RemoveB)
		}
	}
	if limit < len(plan.Steps) {
		fmt.Printf("... %d more steps (-show 0 prints all)\n", len(plan.Steps)-limit)
	}
}
