package sat

// Clone returns an independent deep copy of the solver at the root
// level: variables, root-level assignments, problem and learned clauses,
// watches, activities, saved phases, and the elimination stack of a
// previous Simplify all carry over; per-solve hooks (interrupt, conflict
// hook, progress probe, proof writer) and the cumulative statistics do
// not. The copy shares no mutable state with the original, so clones may
// be solved concurrently — this is what the encoding cache hands out per
// query.
//
// Clone must be taken at decision level 0 (any active search is unwound
// first). Root-level antecedents are dropped in the copy: conflict
// analysis never resolves on level-0 assignments, so reasons there are
// dead weight.
func (s *Solver) Clone() *Solver {
	s.cancelUntil(0)
	nv := len(s.assigns)
	n := &Solver{
		varInc:         s.varInc,
		varDecay:       s.varDecay,
		clauseInc:      s.clauseInc,
		clauseDecay:    s.clauseDecay,
		maxLearned:     s.maxLearned,
		restartBase:    s.restartBase,
		lubyIdx:        s.lubyIdx,
		conflictBudget: s.conflictBudget,
		rootUnsat:      s.rootUnsat,
		levelSeen:      make(map[int]bool, 32),
		assigns:        append([]Tribool(nil), s.assigns...),
		level:          append([]int(nil), s.level...),
		reason:         make([]*clause, nv),
		trail:          append([]Lit(nil), s.trail...),
		activity:       append([]float64(nil), s.activity...),
		polarity:       append([]bool(nil), s.polarity...),
		seen:           make([]bool, nv),
		frozen:         append([]bool(nil), s.frozen...),
		eliminated:     append([]bool(nil), s.eliminated...),
		elimStack:      append([]elimRecord(nil), s.elimStack...),
		watches:        make([][]watcher, 2*nv),
	}
	n.qhead = len(n.trail)
	n.order = newActivityHeap(&n.activity)
	for v := Var(0); int(v) < nv; v++ {
		if n.assigns[v] == Unknown && !n.eliminated[v] {
			n.order.push(v)
		}
	}
	// The delta cache clones per sealed snapshot and again per query, so
	// this copy is hot. Arena allocation keeps it cheap: one clause slab
	// and one literal slab per database (two allocations instead of two
	// PER CLAUSE), and the watch lists are pre-partitioned from a shared
	// watcher buffer so attach never grows a slice. Each clause's literal
	// slice is capacity-clipped to its segment: in-place shrinks
	// (ReduceRoot) stay inside it, and an append-growth would copy out
	// rather than stomp its neighbor.
	live, nlits := 0, 0
	count := func(src []*clause) {
		for _, c := range src {
			if !c.deleted {
				live++
				nlits += len(c.lits)
			}
		}
	}
	count(s.clauses)
	count(s.learned)
	if live > 0 {
		arena := make([]clause, 0, live)
		lits := make([]Lit, 0, nlits)
		wcount := make([]int32, 2*nv)
		copyDB := func(src []*clause, learned bool) []*clause {
			out := make([]*clause, 0, len(src))
			for _, c := range src {
				if c.deleted {
					continue
				}
				lo := len(lits)
				lits = append(lits, c.lits...)
				arena = append(arena, clause{
					lits: lits[lo:len(lits):len(lits)],
					act:  c.act, lbd: c.lbd, learned: learned,
				})
				cc := &arena[len(arena)-1]
				out = append(out, cc)
				wcount[cc.lits[0].Neg()]++
				wcount[cc.lits[1].Neg()]++
			}
			return out
		}
		n.clauses = copyDB(s.clauses, false)
		n.learned = copyDB(s.learned, true)
		wbuf := make([]watcher, 2*live)
		off := 0
		for i, w := range wcount {
			if w == 0 {
				continue
			}
			n.watches[i] = wbuf[off : off : off+int(w)]
			off += int(w)
		}
		for _, c := range n.clauses {
			n.attach(c)
		}
		for _, c := range n.learned {
			n.attach(c)
		}
	}
	n.stats.MaxVars = nv
	return n
}
