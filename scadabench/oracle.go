package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"scadaver/internal/baseline"
	"scadaver/internal/core"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/secpolicy"
)

// oracle judges verdicts independently of the SAT pipeline, by
// breadth-first reachability over the surviving topology and exhaustive
// enumeration of failure sets. A Sat witness must fit its budget and
// violate the property under internal/baseline's BFS checker. An Unsat
// verdict must survive baseline.FindViolation's exhaustive search over
// every failure set within the budget; the search evaluates each set
// with reach, the benchmark's one-BFS-per-set evaluator of the same
// property, because baseline's checker runs one BFS per IED and an
// exhaustive k = 1 search with it takes seconds per configuration. reach
// is checked against baseline's checker on the empty failure set of
// every (configuration, query) it decides and on every witness. Truths
// are memoized per (configuration content, query), so a query asked
// many times in a run is searched once. Safe for concurrent use.
type oracle struct {
	mu       sync.Mutex
	keys     map[*scadanet.Config]string
	checkers map[string]*checkers
	truths   map[string]*truth
}

// checkers are baseline's checker and reach's precomputed topology for
// one configuration content.
type checkers struct {
	base  *baseline.Checker
	reach *reach
}

// truth is the memoized exhaustive answer for one (content, query).
type truth struct {
	once      sync.Once
	resilient bool
	err       error
}

func newOracle() *oracle {
	return &oracle{keys: map[*scadanet.Config]string{}, checkers: map[string]*checkers{}, truths: map[string]*truth{}}
}

// key is cfg's contentKey, computed once per configuration value.
func (o *oracle) key(cfg *scadanet.Config) string {
	o.mu.Lock()
	k, ok := o.keys[cfg]
	o.mu.Unlock()
	if !ok {
		k = contentKey(cfg)
		o.mu.Lock()
		o.keys[cfg] = k
		o.mu.Unlock()
	}
	return k
}

// contentKey identifies a configuration by content: device states and
// links by endpoints, profiles and state, ignoring link IDs, so a
// restored configuration (a removed link added back under a new ID)
// shares its oracle answers with the original.
func contentKey(cfg *scadanet.Config) string {
	var parts []string
	for _, d := range cfg.Net.Devices() {
		if d.Down {
			parts = append(parts, fmt.Sprintf("down %d", d.ID))
		}
	}
	for _, l := range cfg.Net.Links() {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		parts = append(parts, fmt.Sprintf("link %d %d %v %s", a, b, l.Down, secpolicy.FormatProfiles(l.Profiles)))
	}
	sort.Strings(parts)
	h := sha256.New()
	fmt.Fprintf(h, "%d devices %d msrs\n", len(cfg.Net.Devices()), cfg.Msrs.Len())
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (o *oracle) forConfig(key string, cfg *scadanet.Config) *checkers {
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.checkers[key]
	if c == nil {
		c = &checkers{base: baseline.New(cfg, nil), reach: newReach(cfg)}
		o.checkers[key] = c
	}
	return c
}

// holdsFn is the property under a failure set, per the baseline checker.
func holdsFn(ck *baseline.Checker, q core.Query) baseline.PropertyFn {
	switch q.Property {
	case core.Observability:
		return func(down map[scadanet.DeviceID]bool) bool { return ck.Observable(down, false) }
	case core.SecuredObservability:
		return func(down map[scadanet.DeviceID]bool) bool { return ck.Observable(down, true) }
	default:
		return func(down map[scadanet.DeviceID]bool) bool { return ck.BadDataDetectable(down, q.R) }
	}
}

// resilient answers the combined-budget query by exhaustive search: no
// set of at most q.K failed field devices violates the property. Every
// split (n IEDs, K-n RTUs) is searched, which covers every set of size
// <= K. It fails when reach and baseline's checker disagree on the
// empty failure set.
func (o *oracle) resilient(cfg *scadanet.Config, q core.Query) (bool, error) {
	key := o.key(cfg)
	tk := fmt.Sprintf("%s|%d|%d|%d", key, q.Property, q.K, q.R)
	o.mu.Lock()
	t := o.truths[tk]
	if t == nil {
		t = &truth{}
		o.truths[tk] = t
	}
	o.mu.Unlock()
	t.once.Do(func() {
		c := o.forConfig(key, cfg)
		holds := c.reach.holdsFn(q)
		none := map[scadanet.DeviceID]bool{}
		if a, b := holds(none), holdsFn(c.base, q)(none); a != b {
			t.err = fmt.Errorf("oracle self-check: %v with no failures holds=%v under reach, %v under baseline", q.Property, a, b)
			return
		}
		t.resilient = true
		for n := 0; n <= q.K; n++ {
			if c.base.FindViolation(n, q.K-n, holds) != nil {
				t.resilient = false
				return
			}
		}
	})
	return t.resilient, t.err
}

// boundary is prop's k* on cfg by exhaustive search: the largest k <=
// max at which no set of k failed field devices violates the property,
// -1 when it fails with none, and max+1 when it survives every set of
// max.
func (o *oracle) boundary(cfg *scadanet.Config, prop core.Property, max int) (int, error) {
	for k := 0; k <= max; k++ {
		ok, err := o.resilient(cfg, query(prop, k))
		if err != nil || !ok {
			return k - 1, err
		}
	}
	return max + 1, nil
}

// verdict is what the program answered for one query.
type verdict struct {
	Status sat.Status
	Vector *core.ThreatVector
}

// check returns nil when the verdict is right for the configuration,
// else the reason it is wrong. Undecided verdicts are the caller's to
// count; check only judges decided ones.
func (o *oracle) check(cfg *scadanet.Config, q core.Query, v verdict) error {
	if !q.Combined || q.KL != 0 {
		return fmt.Errorf("oracle: only combined device budgets are checked (%v)", q)
	}
	switch v.Status {
	case sat.Sat:
		return o.checkWitness(cfg, q, v.Vector)
	case sat.Unsat:
		ok, err := o.resilient(cfg, q)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("reported resilient, but exhaustive search finds a violating set of <= %d devices", q.K)
		}
		return nil
	}
	return fmt.Errorf("undecided verdict %v", v.Status)
}

// checkWitness confirms a Sat witness: it names distinct field devices,
// fits the budget, and violates the property under the baseline BFS.
func (o *oracle) checkWitness(cfg *scadanet.Config, q core.Query, vec *core.ThreatVector) error {
	if vec == nil {
		return fmt.Errorf("reported violated without a threat vector")
	}
	if len(vec.Links) > 0 {
		return fmt.Errorf("witness %v fails links under a device-only budget", vec)
	}
	if vec.Size() > q.K {
		return fmt.Errorf("witness %v has %d elements, budget is %d", vec, vec.Size(), q.K)
	}
	down := map[scadanet.DeviceID]bool{}
	for _, want := range []struct {
		ids  []scadanet.DeviceID
		kind scadanet.DeviceKind
	}{{vec.IEDs, scadanet.IED}, {vec.RTUs, scadanet.RTU}} {
		for _, id := range want.ids {
			d := cfg.Net.Device(id)
			if d == nil || d.Kind != want.kind {
				return fmt.Errorf("witness %v names %d, which is not a %v of the configuration", vec, id, want.kind)
			}
			if down[id] {
				return fmt.Errorf("witness %v repeats device %d", vec, id)
			}
			down[id] = true
		}
	}
	c := o.forConfig(o.key(cfg), cfg)
	holds := holdsFn(c.base, q)(down)
	if fast := c.reach.holdsFn(q)(down); fast != holds {
		return fmt.Errorf("oracle self-check: witness %v: %v holds=%v under reach, %v under baseline", vec, q.Property, fast, holds)
	}
	if holds {
		return fmt.Errorf("witness %v does not violate %v under the baseline checker", vec, q.Property)
	}
	return nil
}

// checkAll runs fn over n items on at most workers goroutines and waits
// for all of them; exhaustive searches are independent, so the oracle
// uses the CPUs the timed window no longer needs.
func checkAll(n, workers int, fn func(i int)) {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// reach evaluates the oracle's properties as baseline's checker defines
// them, with one breadth-first search per failure set: from the MTU
// over usable links through live forwarders (RTUs and routers), then
// every live IED with a usable link into that set delivers its
// measurements. baseline searches forward from each IED instead; links
// are undirected and only the intermediate devices' kinds and states
// matter, so the two find the same IEDs. A link is usable when it is
// up and both pairings hold; for secured delivery its hop capabilities
// must include authentication and integrity protection.
type reach struct {
	idx       map[scadanet.DeviceID]int
	ids       []scadanet.DeviceID
	forwards  []bool // RTU, router or the MTU
	field     []bool
	cfgDown   []bool
	mtu       int
	adj       [][]hop
	ieds      []int
	msrs      [][]int // per device: 1-based measurement IDs
	nMsrs     int
	nStates   int
	stateSets [][]int
	groups    [][]int
}

type hop struct {
	to      int
	secured bool // usable for secured delivery
}

func newReach(cfg *scadanet.Config) *reach {
	n := cfg.Net
	policy := secpolicy.Default()
	r := &reach{idx: map[scadanet.DeviceID]int{}, mtu: -1, nMsrs: cfg.Msrs.Len(), nStates: cfg.Msrs.NStates,
		stateSets: cfg.Msrs.StateSets(), groups: cfg.Msrs.UniqueGroups()}
	mtu := n.MTUID()
	for i, d := range n.Devices() {
		r.idx[d.ID] = i
		r.ids = append(r.ids, d.ID)
		r.forwards = append(r.forwards, d.Kind == scadanet.RTU || d.Kind == scadanet.Router || d.ID == mtu)
		r.field = append(r.field, d.FieldDevice())
		r.cfgDown = append(r.cfgDown, d.Down)
		r.msrs = append(r.msrs, n.MeasurementsOf(d.ID))
		if d.Kind == scadanet.IED {
			r.ieds = append(r.ieds, i)
		}
		if d.ID == mtu {
			r.mtu = i
		}
	}
	r.adj = make([][]hop, len(r.ids))
	for _, l := range n.Links() {
		if l.Down {
			continue
		}
		if protoOK, cryptoOK := n.HopPairing(l); !protoOK || !cryptoOK {
			continue
		}
		sec := n.HopCaps(l, policy).Has(secpolicy.Authenticates | secpolicy.IntegrityProtects)
		a, b := r.idx[l.A], r.idx[l.B]
		r.adj[a] = append(r.adj[a], hop{b, sec})
		r.adj[b] = append(r.adj[b], hop{a, sec})
	}
	return r
}

// delivered marks, by 1-based measurement ID, what reaches the MTU
// with the devices in down failed.
func (r *reach) delivered(down map[scadanet.DeviceID]bool, secured bool) []bool {
	failed := make([]bool, len(r.ids))
	for id, d := range down {
		if i, ok := r.idx[id]; ok && d {
			failed[i] = true
		}
	}
	alive := func(i int) bool { return !r.field[i] || (!r.cfgDown[i] && !failed[i]) }
	out := make([]bool, r.nMsrs+1)
	if r.mtu < 0 {
		return out
	}
	seen := make([]bool, len(r.ids))
	seen[r.mtu] = true
	queue := []int{r.mtu}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, h := range r.adj[at] {
			if seen[h.to] || (secured && !h.secured) || !r.forwards[h.to] || !alive(h.to) {
				continue
			}
			seen[h.to] = true
			queue = append(queue, h.to)
		}
	}
	for _, i := range r.ieds {
		if r.cfgDown[i] || failed[i] {
			continue
		}
		for _, h := range r.adj[i] {
			if seen[h.to] && (!secured || h.secured) {
				for _, z := range r.msrs[i] {
					out[z] = true
				}
				break
			}
		}
	}
	return out
}

func (r *reach) observable(down map[scadanet.DeviceID]bool, secured bool) bool {
	delivered := r.delivered(down, secured)
	covered := make([]bool, r.nStates)
	for z, ok := range delivered {
		if ok {
			for _, x := range r.stateSets[z-1] {
				covered[x] = true
			}
		}
	}
	for _, ok := range covered {
		if !ok {
			return false
		}
	}
	unique := 0
	for _, g := range r.groups {
		for _, z0 := range g {
			if delivered[z0+1] {
				unique++
				break
			}
		}
	}
	return unique >= r.nStates
}

func (r *reach) badDataDetectable(down map[scadanet.DeviceID]bool, rr int) bool {
	delivered := r.delivered(down, true)
	counts := make([]int, r.nStates)
	for z, ok := range delivered {
		if ok {
			for _, x := range r.stateSets[z-1] {
				counts[x]++
			}
		}
	}
	for _, c := range counts {
		if c < rr+1 {
			return false
		}
	}
	return true
}

func (r *reach) holdsFn(q core.Query) baseline.PropertyFn {
	switch q.Property {
	case core.Observability:
		return func(down map[scadanet.DeviceID]bool) bool { return r.observable(down, false) }
	case core.SecuredObservability:
		return func(down map[scadanet.DeviceID]bool) bool { return r.observable(down, true) }
	default:
		return func(down map[scadanet.DeviceID]bool) bool { return r.badDataDetectable(down, q.R) }
	}
}
