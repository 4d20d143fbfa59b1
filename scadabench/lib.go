package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/synth"
)

// Input generation shared by every workload: synth.Generate
// configurations at the paper's hierarchy level 2 and secure fraction
// 0.9, drawn from the run seed (--seed). The program receives only these
// configurations, queries and deltas.
const (
	hierarchy      = 2
	secureFraction = 0.9
	// badDataR is the corrupted-measurement budget of every bad-data
	// query (the service's default re-verification r).
	badDataR = 1
)

var allProperties = []core.Property{core.Observability, core.SecuredObservability, core.BadDataDetectability}

// subSeed derives the i-th configuration seed of a run seed.
func subSeed(seed int64, i int) int64 { return seed*7919 + int64(i) }

// generate builds one configuration inside a "synth.Generate" span.
func generate(tr *tracer, parent *span, bus *powergrid.BusSystem, seed int64) (*scadanet.Config, error) {
	sp := tr.begin(parent, "synth.Generate")
	t0 := time.Now()
	cfg, err := synth.Generate(synth.Params{Bus: bus, Hierarchy: hierarchy, SecureFraction: secureFraction, Seed: seed})
	ms := msSince(t0)
	sp.end(func() map[string]float64 { return map[string]float64{"synth.generate_ms": ms} })
	if err != nil {
		return nil, fmt.Errorf("generate %s seed %d: %w", bus.Name, seed, err)
	}
	return cfg, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func durMs(d time.Duration) float64 { return float64(d) / 1e6 }

func query(p core.Property, k int) core.Query {
	q := core.Query{Property: p, Combined: true, K: k}
	if p == core.BadDataDetectability {
		q.R = badDataR
	}
	return q
}

// resultAttrs are the phase and counter numbers a library call
// returned, keyed by the per-layer metric they feed. wallMs is the
// benchmark's own timing of the call.
func resultAttrs(res *core.Result, wallMs float64) map[string]float64 {
	ph := res.Phases
	a := map[string]float64{
		"logic.vars":           float64(res.Stats.MaxVars),
		"logic.clauses":        float64(res.Stats.Clauses),
		"core.build_ms":        durMs(ph.Build),
		"core.encode_ms":       durMs(ph.Encode),
		"core.preprocess_ms":   durMs(ph.Preprocess),
		"core.solve_ms":        durMs(ph.Solve),
		"core.decode_ms":       durMs(ph.Decode),
		"core.audit_ms":        durMs(res.Audit),
		"core.proof_clauses":   float64(res.ProofClauses),
		"core.quarantined":     b2f(res.Quarantined),
		"core.unattributed_ms": durMs(res.Duration - ph.Sum() - res.Audit),
		"core.delta_reuse":     float64(ph.DeltaReuse),
		"core.delta_reencoded": float64(ph.DeltaReencoded),
		"core.carried_learnts": float64(ph.CarriedLearnts),
		"sat.conflicts":        float64(res.Stats.Conflicts),
		"sat.decisions":        float64(res.Stats.Decisions),
		"sat.propagations":     float64(res.Stats.Propagations),
		"sat.elim_vars":        float64(res.Stats.ElimVars),
		"sat.simplify_ms":      durMs(res.Stats.SimplifyTime),
	}
	if wallMs > 0 {
		a["core.call_overhead_ms"] = wallMs - durMs(res.Duration)
		a["core.call_ms"] = wallMs
	}
	return a
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// libVerdict is one library verification the timed window made.
type libVerdict struct {
	cfg    *scadanet.Config
	label  string // configuration name, for listings
	q      core.Query
	res    *core.Result
	wallMs float64
	pass   int  // -1: the determinism re-run after the window
	traced bool // recorded spans (see libInstance.run)
}

// key names the verification: the same key in two passes is the same
// call on the same inputs.
func (v libVerdict) key() string { return fmt.Sprintf("%s %v", v.label, v.q) }

// counters are the host-independent numbers two same-input runs must
// reproduce exactly.
func (v libVerdict) counters() string {
	s := v.res.Stats
	return fmt.Sprintf("%s vars=%d clauses=%d conflicts=%d decisions=%d props=%d proof=%d status=%v",
		v.key(), s.MaxVars, s.Clauses, s.Conflicts, s.Decisions, s.Propagations, v.res.ProofClauses, v.res.Status)
}

// decided reports whether the verdict counts as completed work: Sat or
// Unsat, and certified where certification was asked for.
func (v libVerdict) decided(certify bool) bool {
	return v.res.Status != sat.Unsolved && (!certify || v.res.Certified)
}

// libInstance is a library workload's generated inputs and the pass it
// repeats through the timed window. A pass runs every unit once, in a
// fixed order: one query of cold, or one boundary job of sweep.
type libInstance struct {
	certify bool
	opts    []core.Option
	// cold: one fresh analyzer and cache per query.
	cold []coldItem
	// sweep: boundary jobs.
	sweep []sweepItem
}

type coldItem struct {
	label string
	src   source
	cfg   *scadanet.Config // the oracle's copy
	fresh *scadanet.Config // this pass's own copy, the one the program gets
	q     core.Query
}

// source is how a configuration is generated, so that each operation
// can get a copy no earlier call has touched: the program memoizes
// derived data (delivery paths, measurement groups) on the
// configuration value, which a new scada-analyzer run would not have.
type source struct {
	bus  *powergrid.BusSystem
	seed int64
}

// sweepItem is one boundary job: one property of one configuration,
// whose boundary the oracle put at kstar.
type sweepItem struct {
	label string
	src   source
	cfg   *scadanet.Config // the oracle's copy
	fresh *scadanet.Config // this pass's own copy, the one the program gets
	prop  core.Property
	kstar int
}

// analyzerOptions mirror scada-analyzer without optional flags: a
// fresh encoding cache per analyzer, no preprocessing, no portfolio;
// certification only where the workload asks for it.
func (in *libInstance) analyzerOptions() []core.Option {
	opts := []core.Option{core.WithEncodingCache(core.NewEncodingCache())}
	if in.certify {
		opts = append(opts, core.WithCertification(true))
	}
	return append(opts, in.opts...)
}

// Queries per pass. Each query gets a configuration of its own: cost
// varies about two-fold between synth seeds, and a pass of 40
// configurations with six queries each still let cold-verify's
// throughput spread 0.14 of its median over five seeds. The query kinds
// (property x k) rotate, so every pass holds each kind equally often.
// Each pass lasts about 25 s on a 2-CPU host.
const (
	coldQueries      = 324
	certifiedQueries = 126
)

// coldKinds are cold-verify's query kinds: every property at k = 0 and
// 1, the budgets the exhaustive oracle confirms instantly.
func coldKinds() []core.Query {
	var out []core.Query
	for _, prop := range allProperties {
		for k := 0; k <= 1; k++ {
			out = append(out, query(prop, k))
		}
	}
	return out
}

// coldSetup generates cold-verify's inputs: coldQueries IEEE-57
// configurations from sub-seeds 0 on, configuration i with query kind i
// mod 6. certified-verify takes the k = 1 queries among the first
// 2·certifiedQueries of them, with certification asked for.
func coldSetup(p params, tr *tracer, certify bool) (*libInstance, error) {
	in := &libInstance{certify: certify, opts: p.extra}
	bus := powergrid.IEEE57()
	kinds := coldKinds()
	n := coldQueries
	if certify {
		n = 2 * certifiedQueries
	}
	for i := 0; i < n; i++ {
		q := kinds[i%len(kinds)]
		if certify && q.K != 1 {
			continue
		}
		seed := subSeed(p.seed, i)
		cfg, err := generate(tr, nil, bus, seed)
		if err != nil {
			return nil, err
		}
		in.cold = append(in.cold, coldItem{label: fmt.Sprintf("%s#%d", bus.Name, i), src: source{bus, seed}, cfg: cfg, q: q})
	}
	return in, nil
}

// sweepKStar is the boundary every sweep job has: jobs are
// (configuration, property) pairs whose k* is 1, so each sweeps
// k = 0, 1, 2 and yields an Unsat verdict without failures, the Unsat
// proof at the boundary and the Sat witness past it. Drawn freely, jobs
// at k* = 0, 1 and 2 cost 0.1 to 3 s in proportions that changed with
// the seed: an observability Unsat proof at k = 2 alone takes 0.5-1 s.
const sweepKStar = 1

// sweepProperties are the properties whose boundaries boundary-sweep finds,
// as in the paper's Fig. 5.
var sweepProperties = []core.Property{core.Observability, core.SecuredObservability}

// sweepJobs is how many boundary jobs of each property a pass holds,
// each on a configuration of its own; a pass lasts 20-30 s on a 2-CPU
// host. Over ten seeds the job p75 spread 0.24 of its median with 20
// jobs, 0.26 with 24 and 0.12 with 28.
const sweepJobs = 28

// sweepRelaxAfter is how many configurations set-up draws before a job
// of either property may fill the other's place, for seeds whose
// configurations rarely have k* = 1 for one property; after
// sweepMaxCandidates it gives up. Set-up judges sweepBatch candidates
// at once.
const (
	sweepRelaxAfter    = 120
	sweepMaxCandidates = 400
	sweepBatch         = 8
)

// sweepSetup draws boundary-sweep's inputs: IEEE-57 configurations from
// sub-seeds 1000 on, in order. A configuration becomes a boundary job
// for the first property, observability or secured observability, that
// still has room and whose k* is sweepKStar by the oracle's exhaustive
// search.
func sweepSetup(p params) (*libInstance, error) {
	in := &libInstance{opts: p.extra}
	bus := powergrid.IEEE57()
	room := map[core.Property]int{}
	for _, prop := range sweepProperties {
		room[prop] = sweepJobs
	}
	left := sweepJobs * len(sweepProperties)
	o := newOracle()
	for i := 0; left > 0; i += sweepBatch {
		if i >= sweepMaxCandidates {
			return nil, fmt.Errorf("only %d boundary jobs with k*=%d in %d configurations", len(in.sweep), sweepKStar, i)
		}
		// Every property's k* for the batch, searched in parallel and
		// used in order.
		cfgs := make([]*scadanet.Config, sweepBatch)
		ks := make([][]int, sweepBatch)
		errs := make([]error, sweepBatch)
		checkAll(sweepBatch, oracleWorkers(), func(j int) {
			cfgs[j], errs[j] = generate(nil, nil, bus, subSeed(p.seed, 1000+i+j))
			for _, prop := range sweepProperties {
				if errs[j] != nil {
					return
				}
				var k int
				k, errs[j] = o.boundary(cfgs[j], prop, sweepKStar+1)
				ks[j] = append(ks[j], k)
			}
		})
		for j := 0; j < sweepBatch && left > 0; j++ {
			if errs[j] != nil {
				return nil, errs[j]
			}
			for pi, prop := range sweepProperties {
				if ks[j][pi] != sweepKStar || (room[prop] == 0 && i+j < sweepRelaxAfter) {
					continue
				}
				if room[prop] > 0 {
					room[prop]--
				} else {
					for _, q := range sweepProperties {
						if room[q] > 0 {
							room[q]--
							break
						}
					}
				}
				left--
				seed := subSeed(p.seed, 1000+i+j)
				in.sweep = append(in.sweep, sweepItem{label: fmt.Sprintf("%s#%d", bus.Name, 1000+i+j), src: source{bus, seed}, cfg: cfgs[j], prop: prop, kstar: ks[j][pi]})
				break
			}
		}
	}
	return in, nil
}

// regenerate re-derives the chosen configurations from their seeds; it
// is the input generation boundary-sweep's setup_s times.
func (in *libInstance) regenerate(tr *tracer) error {
	for i := range in.sweep {
		cfg, err := generate(tr, nil, in.sweep[i].src.bus, in.sweep[i].src.seed)
		if err != nil {
			return err
		}
		in.sweep[i].cfg = cfg
	}
	return nil
}

// refresh gives every operation of the next pass its own copy of its
// configuration.
func (in *libInstance) refresh() error {
	for i := range in.cold {
		cfg, err := generate(nil, nil, in.cold[i].src.bus, in.cold[i].src.seed)
		if err != nil {
			return err
		}
		in.cold[i].fresh = cfg
	}
	for i := range in.sweep {
		cfg, err := generate(nil, nil, in.sweep[i].src.bus, in.sweep[i].src.seed)
		if err != nil {
			return err
		}
		in.sweep[i].fresh = cfg
	}
	return nil
}

func (in *libInstance) units() int { return len(in.cold) + len(in.sweep) }

// unit runs unit i once: cold query i, or boundary job i. jobMs is a
// boundary job's wall time, -1 for a cold query.
func (in *libInstance) unit(tr *tracer, i, passNo int) (vs []libVerdict, failures []string, jobMs float64, err error) {
	if i < len(in.cold) {
		v, err := in.coldUnit(tr, in.cold[i], passNo)
		if err != nil {
			return nil, nil, 0, err
		}
		return []libVerdict{v}, nil, -1, nil
	}
	return in.sweepUnit(tr, in.sweep[i-len(in.cold)], passNo)
}

func (in *libInstance) coldUnit(tr *tracer, it coldItem, passNo int) (libVerdict, error) {
	root := tr.begin(nil, "op.cold-verify")
	t0 := time.Now()
	sp := tr.begin(root, "core.NewAnalyzer")
	a, err := core.NewAnalyzer(it.fresh, in.analyzerOptions()...)
	sp.end(nil)
	if err != nil {
		return libVerdict{}, err
	}
	sp = tr.begin(root, "core.Verify")
	t1 := time.Now()
	res, err := a.Verify(it.q)
	callMs := msSince(t1)
	if err != nil {
		return libVerdict{}, fmt.Errorf("%s %v: %w", it.label, it.q, err)
	}
	sp.end(func() map[string]float64 { return resultAttrs(res, callMs) })
	wall := msSince(t0)
	root.end(nil)
	return libVerdict{cfg: it.cfg, label: it.label, q: it.q, res: res, wallMs: wall, pass: passNo}, nil
}

// sweepUnit runs one boundary job on a fresh analyzer:
// MaxResiliencyCombined first (a k* other than the oracle's is a failed
// operation), then Sweep.VerifyK for k = 0..k*+1,
// the verdicts on both sides of the boundary. Going on to k*+2 adds a
// Sat verdict that takes 3-14 ms in most jobs; with it half of a pass's
// verdicts were that cheap (k = 0 and k*+2), which put the verdict p50
// in the gap between them and the rest.
func (in *libInstance) sweepUnit(tr *tracer, it sweepItem, passNo int) ([]libVerdict, []string, float64, error) {
	var out []libVerdict
	var failures []string
	root := tr.begin(nil, "op.sweep")
	defer root.end(nil)
	t0 := time.Now()
	sp := tr.begin(root, "core.NewAnalyzer")
	a, err := core.NewAnalyzer(it.fresh, in.analyzerOptions()...)
	sp.end(nil)
	if err != nil {
		return nil, nil, 0, err
	}
	sp = tr.begin(root, "core.MaxResiliencyCombined")
	ks, err := a.MaxResiliencyCombined(it.prop, 0)
	sp.end(nil)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s %v: %w", it.label, it.prop, err)
	}
	if ks != it.kstar {
		failures = append(failures, fmt.Sprintf("%s %v: MaxResiliencyCombined k*=%d, exhaustive search %d", it.label, it.prop, ks, it.kstar))
	}
	sp = tr.begin(root, "core.NewSweep")
	sw, err := a.NewSweep(it.prop, 0, 0)
	sp.end(nil)
	if err != nil {
		return nil, nil, 0, err
	}
	for k := 0; k <= it.kstar+1; k++ {
		sp = tr.begin(root, "core.Sweep.VerifyK")
		t1 := time.Now()
		res, err := sw.VerifyK(k)
		wall := msSince(t1)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s %v k=%d: %w", it.label, it.prop, k, err)
		}
		sp.end(func() map[string]float64 { return resultAttrs(res, wall) })
		out = append(out, libVerdict{cfg: it.cfg, label: it.label, q: query(it.prop, k), res: res, wallMs: wall, pass: passNo})
	}
	return out, failures, msSince(t0), nil
}

// libWindow is what one timed window of a library workload produced.
type libWindow struct {
	wall     time.Duration
	passes   int
	verdicts []libVerdict
	failures []string
	// jobs are the wall times of the untraced boundary jobs that did
	// not fail and whose verdicts were all decided.
	jobs []float64
}

func allDecided(vs []libVerdict, certify bool) bool {
	for _, v := range vs {
		if !v.decided(certify) {
			return false
		}
	}
	return true
}

// samples counts the untraced latency samples the window holds.
func (w *libWindow) samples(in *libInstance) int {
	if len(in.sweep) > 0 {
		return len(w.jobs)
	}
	return len(verdictLatencies(w, in.certify, false))
}

// traceBlock is the period of cold-verify's query-kind rotation (three
// properties x two budgets), so that traced and untraced blocks hold
// the same mix of kinds. Alternating single operations traced the
// k = 1 kinds only, and the traced mean read 40% above the untraced.
const traceBlock = 6

// run repeats whole passes, at least one and at least minSamples
// latency samples, until one more would end the window further from d
// than stopping does. Giving each operation its own configuration copy
// before a pass is not part of the window. With a tracer, alternate
// blocks of traceBlock operations are traced, so traced and untraced
// operations share one window and the traced run costs no more than an
// untraced one.
func (in *libInstance) run(tr *tracer, d time.Duration, minSamples int) (*libWindow, error) {
	w := &libWindow{}
	for {
		if err := in.refresh(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		for i := 0; i < in.units(); i++ {
			var ut *tracer
			if (i/traceBlock)%2 == 1 {
				ut = tr
			}
			vs, fails, jobMs, err := in.unit(ut, i, w.passes)
			if err != nil {
				return nil, err
			}
			for j := range vs {
				vs[j].traced = ut != nil
			}
			w.verdicts = append(w.verdicts, vs...)
			w.failures = append(w.failures, fails...)
			if ut == nil && jobMs >= 0 && len(fails) == 0 && allDecided(vs, in.certify) {
				w.jobs = append(w.jobs, jobMs)
			}
		}
		pass := time.Since(t0)
		w.wall += pass
		w.passes++
		if w.wall+pass/2 >= d && w.samples(in) >= minSamples {
			return w, nil
		}
	}
}

// rerun repeats the first unit after the timed window, untraced and
// untimed, for the determinism check.
func (in *libInstance) rerun() (*libWindow, error) {
	if err := in.refresh(); err != nil {
		return nil, err
	}
	vs, fails, _, err := in.unit(nil, 0, -1)
	if err != nil {
		return nil, err
	}
	return &libWindow{verdicts: vs, failures: fails}, nil
}

// judgeLib counts failed verdicts — errors, Unsolved, verdicts the
// oracle refutes, and uncertified verdicts where certification was
// asked for — and compares every repeat of a verification's
// host-independent counters with its first. digest hashes the first
// pass's counters, which two same-seed runs must reproduce.
func judgeLib(o *oracle, certify bool, windows []*libWindow, workers int) (failures []string, wrong int, mismatches []string, digest string) {
	var all []libVerdict
	for _, w := range windows {
		failures = append(failures, w.failures...)
		all = append(all, w.verdicts...)
	}
	ref := map[string]string{}
	h := sha256.New()
	for _, v := range all {
		c := v.counters()
		first, ok := ref[v.key()]
		switch {
		case !ok:
			ref[v.key()] = c
			fmt.Fprintln(h, c)
		case c != first:
			mismatches = append(mismatches, fmt.Sprintf("pass %d: %s; first: %s", v.pass, c, first))
		}
	}
	digest = hex.EncodeToString(h.Sum(nil))[:16]

	// Oracle: each distinct answer is judged once.
	type key struct {
		label string
		q     core.Query
		ans   string
	}
	seen := map[key]bool{}
	var todo []libVerdict
	for _, v := range all {
		switch {
		case v.res.Status == sat.Unsolved:
			failures = append(failures, fmt.Sprintf("unsolved %s %v: %s", v.label, v.q, v.res.FailureReason))
			continue
		case certify && !v.res.Certified:
			failures = append(failures, fmt.Sprintf("uncertified %s %v: %s", v.label, v.q, v.res.CertifyError))
		}
		k := key{v.label, v.q, fmt.Sprint(v.res.Status, v.res.Vector)}
		if !seen[k] {
			seen[k] = true
			todo = append(todo, v)
		}
	}
	errs := make([]error, len(todo))
	checkAll(len(todo), workers, func(i int) {
		v := todo[i]
		errs[i] = o.check(v.cfg, v.q, verdict{Status: v.res.Status, Vector: v.res.Vector})
	})
	wrongKeys := map[key]string{}
	for i, err := range errs {
		if err != nil {
			v := todo[i]
			wrongKeys[key{v.label, v.q, fmt.Sprint(v.res.Status, v.res.Vector)}] = err.Error()
		}
	}
	for _, v := range all {
		if msg, ok := wrongKeys[key{v.label, v.q, fmt.Sprint(v.res.Status, v.res.Vector)}]; ok {
			failures = append(failures, fmt.Sprintf("wrong verdict %s %v (pass %d): %s", v.label, v.q, v.pass, msg))
			wrong++
		}
	}
	return failures, wrong, mismatches, digest
}
