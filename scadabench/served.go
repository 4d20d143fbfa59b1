package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"scadaver/internal/cluster"
	"scadaver/internal/core"
	"scadaver/internal/obs"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/secpolicy"
	"scadaver/internal/serve"
)

// served-mix shape.
const (
	// servedSeed and servedFamily fix the served configurations:
	// sub-seeds 600 and 601 of seed 1, whatever the run seed. The run
	// seed draws the deltas (see degradePool). Drawing the
	// configurations from the run seed too made the workload measure
	// which configurations were drawn: over five seeds with four
	// configurations each, requests_per_s ranged 9.8-20.9 and
	// peak_rss_mb 1.7-3.2 GB. Among the candidate offsets 300-600 of
	// seed 1, 600 is the one where most read keys that a degrading
	// delta flips route to the member that does not own the
	// configuration: the pair exercises the coordinator's stale-read
	// defect instead of hiding it (see README.md).
	servedSeed   = 1
	servedFamily = 600
	// servedClients is both the number of closed-loop clients (never
	// more than nproc) and of IEEE-57 configurations served by name:
	// client i reads and writes configuration i.
	servedClients = 2
	weakKeyBits   = 56 // key-rotate degrade target
	// A pass is passCycles cycles of each client's script (see run),
	// 10 x 42 = 420 requests a client, which last about passSeconds on
	// the 2-CPU host the workload is sized for. A run holds a number of
	// passes fixed by --seconds, not by timing, so that every run of a
	// seed sends the same requests and meets the same stale reads.
	passCycles  = 10
	passSeconds = 25
	// traceSlice is how long a traced run traces before it runs as long
	// untraced, and so on through the window.
	traceSlice = 500 * time.Millisecond
)

// servedReadKs are the budgets reads ask for; Unsat answers at k <= 1
// are what the exhaustive oracle can confirm on IEEE-57.
var servedReadKs = []int{0, 1}

// node is one in-process HTTP server: a member or the coordinator.
type node struct {
	http *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{http: &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- n.http.Serve(ln) }()
	return n, nil
}

func (n *node) stop(ctx context.Context) {
	n.http.Shutdown(ctx) //nolint:errcheck // Serve's own return is awaited below
	<-n.done
}

// degradeOp is one seeded degrading delta and how to undo it, named by
// stable identities (device IDs, link endpoints) and resolved against
// the current shadow configuration when sent.
type degradeOp struct {
	kind     scadanet.OpKind
	device   scadanet.DeviceID
	a, b     scadanet.DeviceID
	profiles []string
}

func (d degradeOp) ops(cur *scadanet.Config, restore bool) ([]scadanet.Op, error) {
	switch d.kind {
	case scadanet.OpDeviceDown:
		if restore {
			return []scadanet.Op{{Kind: scadanet.OpDeviceUp, Device: d.device}}, nil
		}
		return []scadanet.Op{{Kind: scadanet.OpDeviceDown, Device: d.device}}, nil
	case scadanet.OpLinkRemove:
		if restore {
			return []scadanet.Op{{Kind: scadanet.OpLinkAdd, A: d.a, B: d.b, Profiles: d.profiles}}, nil
		}
	}
	l := cur.Net.LinkBetween(d.a, d.b)
	if l == nil {
		return nil, fmt.Errorf("no link %d-%d in the current version", d.a, d.b)
	}
	switch {
	case d.kind == scadanet.OpLinkRemove:
		return []scadanet.Op{{Kind: scadanet.OpLinkRemove, Link: l.ID}}, nil
	case restore:
		return []scadanet.Op{{Kind: scadanet.OpLinkReprofile, Link: l.ID, Profiles: d.profiles}}, nil
	default:
		return []scadanet.Op{{Kind: scadanet.OpKeyRotate, Link: l.ID, KeyBits: weakKeyBits}}, nil
	}
}

func profileTokens(ps []secpolicy.Profile) []string {
	var out []string
	for _, p := range ps {
		out = append(out, string(p.Algo), fmt.Sprint(p.KeyBits))
	}
	return out
}

// degradePool draws one device-down, one link-remove and one
// key-rotate per configuration, in a seeded order, each checked to
// apply cleanly and to be undone exactly by its restore. The targets come from threat vectors
// of the unmodified configuration — observability at k = 2, secured
// observability at k = 1 — so a degrading delta removes part of a
// minimal failure set and moves the verdicts the reads ask for. The run
// seed shuffles the witness devices and the links that touch them, so
// it chooses which of them each delta targets; where no witness offers
// a target, a seeded random one is drawn.
func degradePool(cfg *scadanet.Config, rng *rand.Rand, extra []core.Option) ([]degradeOp, error) {
	var witness []scadanet.DeviceID
	for _, q := range []core.Query{query(core.Observability, 2), query(core.SecuredObservability, 1)} {
		a, err := core.NewAnalyzer(cfg, extra...)
		if err != nil {
			return nil, err
		}
		res, err := a.Verify(q)
		if err != nil {
			return nil, err
		}
		if res.Vector != nil {
			witness = append(witness, res.Vector.Devices()...)
		}
	}
	var pool []degradeOp
	try := func(d degradeOp) bool {
		ops, err := d.ops(cfg, false)
		if err != nil {
			return false
		}
		next, _, err := cfg.Apply(scadanet.Delta{Ops: ops})
		if err != nil {
			return false
		}
		back, err := d.ops(next, true)
		if err != nil {
			return false
		}
		restored, _, err := next.Apply(scadanet.Delta{Ops: back})
		if err != nil || contentKey(restored) != contentKey(cfg) {
			return false
		}
		pool = append(pool, d)
		return true
	}
	// Candidate targets: witness devices first, then the seeded draws.
	devices := append([]scadanet.DeviceID(nil), witness...)
	rng.Shuffle(len(devices), func(i, j int) { devices[i], devices[j] = devices[j], devices[i] })
	for _, d := range rng.Perm(len(cfg.Net.Devices())) {
		devices = append(devices, cfg.Net.Devices()[d].ID)
	}
	var links []*scadanet.Link
	for _, id := range witness {
		for _, l := range cfg.Net.Links() {
			if l.A == id || l.B == id {
				links = append(links, l)
			}
		}
	}
	rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for _, i := range rng.Perm(len(cfg.Net.Links())) {
		links = append(links, cfg.Net.Links()[i])
	}
	found := func(kind scadanet.OpKind) bool {
		switch kind {
		case scadanet.OpDeviceDown:
			for _, id := range devices {
				if d := cfg.Net.Device(id); d.FieldDevice() && try(degradeOp{kind: kind, device: id}) {
					return true
				}
			}
		default:
			for _, l := range links {
				if kind == scadanet.OpKeyRotate && len(l.Profiles) == 0 {
					continue
				}
				if try(degradeOp{kind: kind, a: l.A, b: l.B, profiles: profileTokens(l.Profiles)}) {
					return true
				}
			}
		}
		return false
	}
	for _, kind := range []scadanet.OpKind{scadanet.OpDeviceDown, scadanet.OpLinkRemove, scadanet.OpKeyRotate} {
		if !found(kind) {
			return nil, fmt.Errorf("served-mix: no valid %s delta", kind)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

// servedInstance is one booted cluster: two members (Workers: 1 each)
// behind an in-process coordinator, serving the generated configs.
type servedInstance struct {
	names   []string
	base    []*scadanet.Config
	pools   [][]degradeOp
	members []*serve.Server
	nodes   []*node // members first, coordinator last
	coord   *cluster.Coordinator
	client  *http.Client

	// Write state. versions[i] is configuration i's publication
	// history (guarded by vmu). degraded[i] is the
	// delta its writer applied last and has not yet undone, and
	// pools[i][opNext[i]%len] the one it degrades with next; both are
	// touched only by that configuration's writing client.
	vmu      sync.Mutex
	versions [][]*version
	degraded []*degradeOp
	opNext   []int
}

func (s *servedInstance) coordURL() string { return s.nodes[len(s.nodes)-1].url }

// servedSetup generates the served configurations and delta pools,
// boots the cluster and warms every member cache the reads will use.
func servedSetup(p params, tr *tracer) (*servedInstance, error) {
	s := &servedInstance{}
	rng := rand.New(rand.NewSource(p.seed))
	cfgs := map[string]*scadanet.Config{}
	bus := powergrid.IEEE57()
	for i := 0; i < servedClients; i++ {
		cfg, err := generate(tr, nil, bus, subSeed(servedSeed, servedFamily+i))
		if err != nil {
			return nil, err
		}
		pool, err := degradePool(cfg, rng, p.extra)
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("grid%d", i)
		s.names = append(s.names, name)
		s.base = append(s.base, cfg)
		s.pools = append(s.pools, pool)
		s.versions = append(s.versions, []*version{{n: 1, cfg: cfg}})
		s.degraded = append(s.degraded, nil)
		s.opNext = append(s.opNext, 0)
		cfgs[name] = cfg
	}
	quiet := log.New(io.Discard, "", 0)
	var members []cluster.Member
	for i := 0; i < 2; i++ {
		srv, err := serve.New(serve.Options{Configs: cfgs, Workers: 1, AnalyzerOptions: p.extra, ErrorLog: quiet})
		if err != nil {
			s.close()
			return nil, err
		}
		n, err := listen(srv.Handler())
		if err != nil {
			srv.Drain(context.Background()) //nolint:errcheck // nothing admitted yet
			s.close()
			return nil, err
		}
		s.members = append(s.members, srv)
		s.nodes = append(s.nodes, n)
		members = append(members, cluster.Member{Name: fmt.Sprintf("m%d", i+1), URL: n.url})
	}
	coord, err := cluster.New(cluster.Options{Members: members, Configs: cfgs, ErrorLog: quiet})
	if err != nil {
		s.close()
		return nil, err
	}
	s.coord = coord
	cn, err := listen(coord.Handler())
	if err != nil {
		s.close()
		return nil, err
	}
	s.nodes = append(s.nodes, cn)
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: servedClients, MaxIdleConnsPerHost: servedClients},
		Timeout:   2 * time.Minute,
	}
	for _, name := range s.names {
		for _, prop := range allProperties {
			for _, k := range servedReadKs {
				code, _, err := s.verify(name, query(prop, k))
				if err != nil || code != http.StatusOK {
					s.close()
					return nil, fmt.Errorf("served-mix warm-up %s %v: status %d: %v", name, query(prop, k), code, err)
				}
			}
		}
	}
	return s, nil
}

// close stops the coordinator, the HTTP servers and the members, and
// waits for each to finish.
func (s *servedInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.coord != nil {
		s.coord.Close()
	}
	for i := len(s.nodes) - 1; i >= 0; i-- {
		s.nodes[i].stop(ctx)
	}
	for _, m := range s.members {
		m.Drain(ctx) //nolint:errcheck // listeners are closed; a forced drain still unwinds every job
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

func (s *servedInstance) do(method, path string, body any, into any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(method, s.coordURL()+path, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, into)
}

func (s *servedInstance) verify(name string, q core.Query) (int, *serve.VerifyResponse, error) {
	var out serve.VerifyResponse
	code, err := s.do(http.MethodPost, "/v1/verify", serve.VerifyRequest{Config: name, Query: q}, &out)
	return code, &out, err
}

// version is one published configuration version as the benchmark's
// shadow copy tracks it: the PATCH that published it was sent at sent
// and acknowledged at ack (both zero for the initial version).
type version struct {
	n         int
	cfg       *scadanet.Config
	sent, ack time.Time
}

type readRec struct {
	traced      bool
	cfg         int
	q           core.Query
	sent, reply time.Time
	wallMs      float64
	err         string
	resp        *serve.VerifyResponse
}

type patchRec struct {
	traced bool
	cfg    int
	ver    *version
	delta  string
	wallMs float64
	err    string
	ev     *serve.MutationEvent
}

// servedWindow is what one timed window of served-mix produced.
type servedWindow struct {
	wall    time.Duration
	passes  int
	reads   []readRec
	patches []patchRec
	before  []obs.Snapshot // members..., coordinator
	after   []obs.Snapshot
}

func (s *servedInstance) snapshots() ([]obs.Snapshot, error) {
	var out []obs.Snapshot
	for _, n := range s.nodes {
		resp, err := s.client.Get(n.url + "/metrics.json")
		if err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
		var snap obs.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("metrics: %w", err)
		}
		out = append(out, snap)
	}
	return out, nil
}

// run drives the closed loop: servedClients clients, each sending its
// next request when the previous one answered. Client i alone reads and
// writes configuration i, as an operator console watches its own grid,
// so no read overlaps a PATCH of the configuration it asks about and
// each read has exactly one live version. A client's script repeats a
// cycle over its configuration's three degrading deltas: for each, a
// PATCH that degrades, a read of every key (property x k) in one fixed
// order, the PATCH that restores, and every key again. Each degraded
// version thus meets every read key once.
//
// The script does not depend on the run seed, which draws the deltas:
// the service's speed depends on its history, since delta snapshots
// evolve through every PATCH and harvest learnt clauses from every
// read, and two random read orders over the same configurations settled
// into throughputs 1.8x apart.
//
// The window holds max(1, round(d / passSeconds)) passes. With a
// tracer, requests sent in alternate traceSlice slices of the window
// are traced, so traced and untraced requests meet the same service
// history.
func (s *servedInstance) run(tr *tracer, d time.Duration) (*servedWindow, error) {
	w := &servedWindow{passes: max(1, int(math.Round(d.Seconds()/passSeconds)))}
	var keys []core.Query
	for _, p := range allProperties {
		for _, k := range servedReadKs {
			keys = append(keys, query(p, k))
		}
	}
	var err error
	if w.before, err = s.snapshots(); err != nil {
		return nil, err
	}
	start := time.Now()
	traced := func() *tracer {
		if tr != nil && (time.Since(start)/traceSlice)%2 == 0 {
			return tr
		}
		return nil
	}
	var wg sync.WaitGroup
	var mu sync.Mutex // guards w.reads, w.patches
	for c := range servedClients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for range w.passes * passCycles * 2 * len(s.pools[ci]) {
				s.vmu.Lock()
				cur := s.versions[ci][len(s.versions[ci])-1]
				s.vmu.Unlock()
				rec := s.patch(traced(), ci, cur)
				if rec.err == "" {
					s.vmu.Lock()
					s.versions[ci] = append(s.versions[ci], rec.ver)
					s.vmu.Unlock()
				}
				mu.Lock()
				w.patches = append(w.patches, rec)
				mu.Unlock()
				for _, q := range keys {
					rec := s.read(traced(), ci, q)
					mu.Lock()
					w.reads = append(w.reads, rec)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(start)
	if w.after, err = s.snapshots(); err != nil {
		return nil, err
	}
	return w, nil
}

func (s *servedInstance) read(tr *tracer, ci int, q core.Query) readRec {
	root := tr.begin(nil, "op.read")
	sp := tr.begin(root, "http.verify")
	rec := readRec{traced: tr != nil, cfg: ci, q: q, sent: time.Now()}
	_, resp, err := s.verify(s.names[ci], q)
	rec.reply = time.Now()
	rec.wallMs = float64(rec.reply.Sub(rec.sent)) / 1e6
	if err != nil {
		rec.err = err.Error()
	} else {
		rec.resp = resp
	}
	sp.end(func() map[string]float64 {
		if rec.resp == nil || rec.resp.Result == nil {
			return nil
		}
		a := resultAttrs(rec.resp.Result, 0)
		// Mutation accounting is taken from PATCH responses only.
		delete(a, "core.delta_reuse")
		delete(a, "core.delta_reencoded")
		delete(a, "core.carried_learnts")
		a["serve.verify_client_ms"] = rec.wallMs
		return a
	})
	root.end(nil)
	return rec
}

func (s *servedInstance) patch(tr *tracer, ci int, cur *version) patchRec {
	rec := patchRec{traced: tr != nil, cfg: ci}
	root := tr.begin(nil, "op.patch")
	defer root.end(nil)
	op, restore := s.degraded[ci], true
	if op == nil {
		pool := s.pools[ci]
		op, restore = &pool[s.opNext[ci]%len(pool)], false
	}
	ops, err := op.ops(cur.cfg, restore)
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	delta := scadanet.Delta{Ops: ops}
	rec.delta = delta.String()
	// The shadow copy of the version this PATCH publishes.
	sp := tr.begin(root, "scadanet.Apply")
	t0 := time.Now()
	next, _, err := cur.cfg.Apply(delta)
	applyMs := msSince(t0)
	sp.end(func() map[string]float64 { return map[string]float64{"scadanet.apply_ms": applyMs} })
	if err != nil {
		rec.err = fmt.Sprintf("shadow apply %s: %v", rec.delta, err)
		return rec
	}
	ver := &version{n: cur.n + 1, cfg: next}
	sp = tr.begin(root, "http.patch")
	var ev serve.MutationEvent
	ver.sent = time.Now()
	_, err = s.do(http.MethodPatch, "/v1/configs/"+s.names[ci], serve.PatchRequest{Ops: ops}, &ev)
	ver.ack = time.Now()
	rec.wallMs = float64(ver.ack.Sub(ver.sent)) / 1e6
	sp.end(func() map[string]float64 {
		if err != nil {
			return nil
		}
		return map[string]float64{
			"core.delta_reuse":      float64(ev.Mutation.DeltaReuse),
			"core.delta_reencoded":  float64(ev.Mutation.DeltaReencoded),
			"core.carried_learnts":  float64(ev.Mutation.CarriedLearnts),
			"serve.patch_client_ms": rec.wallMs,
		}
	})
	switch {
	case err != nil:
		rec.err = err.Error()
		return rec
	case ev.Version != ver.n:
		rec.err = fmt.Sprintf("PATCH %s published version %d, want %d", rec.delta, ev.Version, ver.n)
		return rec
	}
	if restore {
		s.degraded[ci] = nil
	} else {
		s.degraded[ci] = op
		s.opNext[ci]++
	}
	rec.ver, rec.ev = ver, &ev
	return rec
}

// servedJudgement is the oracle's account of one served window.
type servedJudgement struct {
	failures []string // every failed request, stale reads included
	stale    []string // reads whose verdict fits only an older version
	wrong    int      // wrong verdicts no superseded version explains
	checked  int
}

// judgeServed checks every answered read against the versions
// published between its send and its reply, and every PATCH's
// re-verification verdicts against the version it published. A read
// no such version explains is wrong; when an older version explains
// it, it is listed as a stale read as well.
func judgeServed(o *oracle, s *servedInstance, w *servedWindow, workers int) servedJudgement {
	var j servedJudgement
	type job struct {
		cfg *scadanet.Config
		q   core.Query
		v   verdict
	}
	var jobs []job
	jobIdx := map[string]int{}
	need := func(cfg *scadanet.Config, q core.Query, v verdict) int {
		k := fmt.Sprintf("%s|%v|%v|%v", o.key(cfg), q, v.Status, v.Vector)
		if i, ok := jobIdx[k]; ok {
			return i
		}
		jobIdx[k] = len(jobs)
		jobs = append(jobs, job{cfg, q, v})
		return len(jobs) - 1
	}
	type readPlan struct {
		rec    readRec
		cands  []int // indexes into jobs, for the versions live during the read
		older  []int // indexes into jobs, for versions superseded before the send
		olderV []int
	}
	var plans []readPlan
	for _, r := range w.reads {
		if r.err != "" {
			j.failures = append(j.failures, fmt.Sprintf("read %s %v: %s", s.names[r.cfg], r.q, r.err))
			continue
		}
		res := r.resp.Result
		if res == nil || res.Status == sat.Unsolved {
			j.failures = append(j.failures, fmt.Sprintf("read %s %v: unsolved", s.names[r.cfg], r.q))
			continue
		}
		v := verdict{Status: res.Status, Vector: res.Vector}
		vs := s.versions[r.cfg]
		cur := 0
		for i, ver := range vs {
			if !ver.ack.After(r.sent) {
				cur = i
			}
		}
		p := readPlan{rec: r}
		for i, ver := range vs {
			switch {
			case i == cur || (ver.sent.Before(r.reply) && ver.ack.After(r.sent)):
				p.cands = append(p.cands, need(ver.cfg, r.q, v))
			case i < cur:
				p.older = append(p.older, need(ver.cfg, r.q, v))
				p.olderV = append(p.olderV, ver.n)
			}
		}
		plans = append(plans, p)
	}
	type patchPlan struct {
		rec     patchRec
		jobs    []int
		queries []core.Query
	}
	var pplans []patchPlan
	for _, p := range w.patches {
		if p.err != "" {
			j.failures = append(j.failures, fmt.Sprintf("patch %s %q: %s", s.names[p.cfg], p.delta, p.err))
			continue
		}
		pp := patchPlan{rec: p}
		for _, mv := range p.ev.Verdicts {
			if mv.Result == nil || mv.Status == sat.Unsolved {
				j.failures = append(j.failures, fmt.Sprintf("patch %s v%d %v: unsolved", s.names[p.cfg], p.ver.n, mv.Query))
				continue
			}
			pp.jobs = append(pp.jobs, need(p.ver.cfg, mv.Query, verdict{Status: mv.Status, Vector: mv.Result.Vector}))
			pp.queries = append(pp.queries, mv.Query)
		}
		pplans = append(pplans, pp)
	}
	errs := make([]error, len(jobs))
	checkAll(len(jobs), workers, func(i int) { errs[i] = o.check(jobs[i].cfg, jobs[i].q, jobs[i].v) })
	j.checked = len(jobs)

	for _, p := range plans {
		ok := false
		var why error
		for _, i := range p.cands {
			if errs[i] == nil {
				ok = true
				break
			}
			why = errs[i]
		}
		if ok {
			continue
		}
		r := p.rec
		line := fmt.Sprintf("read %s %v answered resilient=%v: wrong for every version live during the read (%v)",
			s.names[r.cfg], r.q, r.resp.Resilient, why)
		var fits []int
		for n, i := range p.older {
			if errs[i] == nil {
				fits = append(fits, p.olderV[n])
			}
		}
		if len(fits) > 0 {
			sort.Ints(fits)
			line = fmt.Sprintf("stale read %s %v answered resilient=%v, which fits only superseded version(s) %v",
				s.names[r.cfg], r.q, r.resp.Resilient, fits)
			j.stale = append(j.stale, line)
		} else {
			j.wrong++
		}
		j.failures = append(j.failures, line)
	}
	for _, p := range pplans {
		for n, i := range p.jobs {
			if errs[i] != nil {
				j.failures = append(j.failures, fmt.Sprintf("wrong verdict in patch %s v%d %v: %v",
					s.names[p.rec.cfg], p.rec.ver.n, p.queries[n], errs[i]))
				j.wrong++
			}
		}
	}
	return j
}
