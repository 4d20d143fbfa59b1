package core_test

import (
	"fmt"

	"scadaver/internal/core"
	"scadaver/internal/powergrid"
	"scadaver/internal/synth"
)

// Example_verification verifies a resiliency property on a synthesized
// IEEE-14 configuration. UNSAT means the property holds under every
// failure combination within the budget: no single IED, RTU or link
// failure can make the grid unobservable.
func Example_verification() {
	cfg, err := synth.Generate(synth.Params{
		Bus: powergrid.IEEE14(), Seed: 41, Hierarchy: 2, SecureFraction: 0.9,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	a, err := core.NewAnalyzer(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	q := core.Query{Property: core.Observability, Combined: true, K: 1}
	res, err := a.Verify(q)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%v: %v\n", q, res.Status)
	// Output: 1-resilient observability: unsat
}
