package sat_test

import (
	"fmt"

	"scadaver/internal/sat"
)

// Example_pigeonhole decides a pigeonhole instance: no assignment puts
// six pigeons into five holes without sharing one, so the solver proves
// the formula unsatisfiable.
func Example_pigeonhole() {
	s := sat.New()

	// PHP(6,5): six pigeons, five holes — classically hard for CDCL.
	const pigeons, holes = 6, 5
	vars := make([][]sat.Var, pigeons)
	for i := range vars {
		vars[i] = make([]sat.Var, holes)
		for j := range vars[i] {
			vars[i][j] = s.NewVar()
		}
	}
	for i := 0; i < pigeons; i++ { // every pigeon sits somewhere
		lits := make([]sat.Lit, holes)
		for j := 0; j < holes; j++ {
			lits[j] = sat.PosLit(vars[i][j])
		}
		if err := s.AddClause(lits...); err != nil {
			fmt.Println(err)
			return
		}
	}
	for j := 0; j < holes; j++ { // no hole holds two pigeons
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				if err := s.AddClause(sat.NegLit(vars[i][j]), sat.NegLit(vars[k][j])); err != nil {
					fmt.Println(err)
					return
				}
			}
		}
	}

	fmt.Println(s.Solve())
	// Output: unsat
}
