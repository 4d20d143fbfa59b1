package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"scadaver/internal/core"
	"scadaver/internal/faultinject"
	"scadaver/internal/powergrid"
	"scadaver/internal/sat"
	"scadaver/internal/scadanet"
	"scadaver/internal/serve"
)

// smallInstance is a cold-verify pass over one IEEE-14 configuration,
// every property at k = 0 and 1: small enough that the exhaustive
// oracle answers instantly.
func smallInstance(t *testing.T, extra ...core.Option) *libInstance {
	t.Helper()
	cfg, err := generate(nil, nil, powergrid.IEEE14(), 14)
	if err != nil {
		t.Fatal(err)
	}
	in := &libInstance{opts: extra}
	for _, p := range allProperties {
		for k := 0; k <= 1; k++ {
			in.cold = append(in.cold, coldItem{label: "ieee14", src: source{powergrid.IEEE14(), 14}, cfg: cfg, q: query(p, k)})
		}
	}
	return in
}

func runSmall(t *testing.T, in *libInstance) *libWindow {
	t.Helper()
	w, err := in.run(nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestOracleAcceptsHealthyVerdicts(t *testing.T) {
	w := runSmall(t, smallInstance(t))
	failures, wrong, mismatches, _ := judgeLib(newOracle(), false, []*libWindow{w}, 2)
	if wrong != 0 || len(failures) != 0 || len(mismatches) != 0 {
		t.Fatalf("healthy run judged wrong=%d failures=%v mismatches=%v", wrong, failures, mismatches)
	}
}

// A verdict flipped inside the analyzer (the fault plan inverts the
// first decided verdict) must be refuted by the oracle, whichever way
// it was flipped.
func TestOracleCatchesFlippedVerdict(t *testing.T) {
	for n := 0; n < 6; n++ {
		faults := faultinject.New(1).FlipVerdict(n)
		w := runSmall(t, smallInstance(t, core.WithFaults(faults)))
		vs := w.verdicts[:len(allProperties)*2]
		failures, wrong, _, _ := judgeLib(newOracle(), false, []*libWindow{{verdicts: vs, passes: 1}}, 2)
		if wrong != 1 {
			t.Fatalf("flip of verdict %d: oracle counted %d wrong verdicts, want 1 (failures %v)", n, wrong, failures)
		}
		flipped := vs[n]
		if !strings.Contains(failures[0], flipped.q.String()) {
			t.Errorf("failure %q does not name the flipped query %v", failures[0], flipped.q)
		}
	}
}

// Certification catches the same flip inside the program: the verdict
// comes back quarantined and right, so the oracle finds nothing wrong.
func TestCertifiedFlipIsQuarantined(t *testing.T) {
	in := smallInstance(t, core.WithFaults(faultinject.New(1).FlipVerdict(0)))
	in.certify = true
	w := runSmall(t, in)
	_, wrong, _, _ := judgeLib(newOracle(), true, []*libWindow{w}, 2)
	if wrong != 0 {
		t.Fatalf("certified run reported %d wrong verdicts", wrong)
	}
	quarantined := 0
	for _, v := range w.verdicts {
		if v.res.Quarantined {
			quarantined++
		}
	}
	if quarantined == 0 {
		t.Fatal("the flipped verdict was not quarantined")
	}
}

// Undecided and, where certification was asked for, uncertified
// verdicts are failed operations: they count neither in the latencies
// nor in the throughput.
func TestLatenciesCountDecidedVerdictsOnly(t *testing.T) {
	w := &libWindow{verdicts: []libVerdict{
		{res: &core.Result{Status: sat.Unsat, Certified: true}, wallMs: 1},
		{res: &core.Result{Status: sat.Sat}, wallMs: 2},
		{res: &core.Result{Status: sat.Unsolved}, wallMs: 3},
		{res: &core.Result{Status: sat.Sat}, wallMs: 4, traced: true},
	}}
	if got := verdictLatencies(w, false, false); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("uncertified run: latencies %v, want [1 2]", got)
	}
	if got := verdictLatencies(w, true, false); len(got) != 1 || got[0] != 1 {
		t.Errorf("certified run: latencies %v, want [1]", got)
	}
	if got := verdictLatencies(w, false, true); len(got) != 1 || got[0] != 4 {
		t.Errorf("traced verdicts: latencies %v, want [4]", got)
	}
}

// reach, the evaluator the exhaustive search uses, must agree with
// baseline's checker on every failure set of at most two field devices
// (IEEE-14) and of at most one (IEEE-57), for every property.
func TestReachMatchesBaseline(t *testing.T) {
	buses := []*powergrid.BusSystem{powergrid.IEEE14()}
	seeds := []int64{3, subSeed(1, 0)}
	if !testing.Short() {
		buses = append(buses, powergrid.IEEE57())
	}
	for i, bus := range buses {
		cfg, err := generate(nil, nil, bus, seeds[i])
		if err != nil {
			t.Fatal(err)
		}
		o := newOracle()
		c := o.forConfig(contentKey(cfg), cfg)
		var field []scadanet.DeviceID
		for _, d := range cfg.Net.Devices() {
			if d.FieldDevice() {
				field = append(field, d.ID)
			}
		}
		sets := []map[scadanet.DeviceID]bool{{}}
		for i, a := range field {
			sets = append(sets, map[scadanet.DeviceID]bool{a: true})
			if bus.Name == "ieee14" {
				for _, b := range field[i+1:] {
					sets = append(sets, map[scadanet.DeviceID]bool{a: true, b: true})
				}
			}
		}
		violated := 0
		for _, p := range allProperties {
			q := query(p, 0)
			slow, fast := holdsFn(c.base, q), c.reach.holdsFn(q)
			for _, down := range sets {
				if a, b := fast(down), slow(down); a != b {
					t.Fatalf("%s %v down %v: reach %v, baseline %v", bus.Name, p, down, a, b)
				} else if !a {
					violated++
				}
			}
		}
		if violated == 0 {
			t.Errorf("%s: no failure set violates any property; the comparison proves little", bus.Name)
		}
	}
}

func TestDeterminismCheck(t *testing.T) {
	in := smallInstance(t)
	a, b := runSmall(t, in), runSmall(t, in)
	_, _, mismatches, d1 := judgeLib(newOracle(), false, []*libWindow{a}, 2)
	_, _, _, d2 := judgeLib(newOracle(), false, []*libWindow{b}, 2)
	if len(mismatches) != 0 || d1 != d2 {
		t.Fatalf("same inputs: mismatches %v, digests %s vs %s", mismatches, d1, d2)
	}
	// A counter that changes between passes is reported.
	b.verdicts[0].pass = 1
	b.verdicts[0].res = &core.Result{Status: b.verdicts[0].res.Status, Vector: b.verdicts[0].res.Vector,
		Stats: sat.Stats{Conflicts: b.verdicts[0].res.Stats.Conflicts + 1}}
	_, _, mismatches, _ = judgeLib(newOracle(), false, []*libWindow{a, b}, 2)
	if len(mismatches) != 1 {
		t.Fatalf("changed counter: %d mismatches, want 1", len(mismatches))
	}
}

// degrade returns an observability query cfg passes and a version of
// cfg with one device down that fails it.
func degrade(t *testing.T, o *oracle, cfg *scadanet.Config) (core.Query, *scadanet.Config) {
	t.Helper()
	for k := 0; k <= 1; k++ {
		q := query(core.Observability, k)
		if ok, err := o.resilient(cfg, q); err != nil || !ok {
			continue
		}
		for _, d := range cfg.Net.Devices() {
			if !d.FieldDevice() {
				continue
			}
			next, _, err := cfg.Apply(scadanet.Delta{Ops: []scadanet.Op{{Kind: scadanet.OpDeviceDown, Device: d.ID}}})
			if err != nil {
				continue
			}
			if ok, err := o.resilient(next, q); err == nil && !ok {
				return q, next
			}
		}
	}
	t.Fatal("no single device failure changes an observability verdict")
	return core.Query{}, nil
}

// A read sent after a PATCH was acknowledged that still answers for
// the superseded version is a stale read: counted as failed and
// listed, but not as an unexplained wrong verdict.
func TestServedJudgeFlagsStaleRead(t *testing.T) {
	o := newOracle()
	base, err := generate(nil, nil, powergrid.IEEE14(), 14)
	if err != nil {
		t.Fatal(err)
	}
	q, degraded := degrade(t, o, base)
	t0 := time.Now()
	s := &servedInstance{
		names: []string{"grid0"},
		versions: [][]*version{{
			{n: 1, cfg: base},
			{n: 2, cfg: degraded, sent: t0, ack: t0.Add(time.Millisecond)},
		}},
	}
	holds := &serve.VerifyResponse{Resilient: true, Result: &core.Result{Query: q, Status: sat.Unsat}}
	read := func(sent time.Duration) readRec {
		return readRec{cfg: 0, q: q, sent: t0.Add(sent), reply: t0.Add(sent + time.Millisecond), resp: holds}
	}
	w := &servedWindow{reads: []readRec{
		read(-time.Second), // before the PATCH: right
		read(0),            // overlaps the PATCH: either version may answer
		read(time.Second),  // after the acknowledgement: stale
	}}
	j := judgeServed(o, s, w, 2)
	if len(j.stale) != 1 || len(j.failures) != 1 || j.wrong != 0 {
		t.Fatalf("stale=%v failures=%v wrong=%d; want exactly the last read stale", j.stale, j.failures, j.wrong)
	}
	if !strings.Contains(j.stale[0], "superseded version(s) [1]") {
		t.Errorf("stale listing %q does not name version 1", j.stale[0])
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "cold-verify", "--seconds", "0"},
		{"--workload", "cold-verify", "--trace", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestTracedRunPrintsLayerMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs boundary-sweep")
	}
	var out, errb bytes.Buffer
	dir := t.TempDir()
	code := run([]string{"--workload", "boundary-sweep", "--seed", "3", "--seconds", "0.5", "--trace", "1", "--spans-dir", dir}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]jsonMetric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
		t.Fatalf("summary %+v", sum)
	}
	for _, name := range []string{"sat.conflicts.total", "core.solve_ms.p50", "trace.overhead_share", "trace.self_ms.core"} {
		if _, ok := sum.Metrics[name]; !ok {
			t.Errorf("traced run lacks %s", name)
		}
	}
	if sum.Metrics["sat.conflicts.total"].Value <= 0 || sum.Metrics["trace.spans"].Value <= 0 {
		t.Errorf("traced run recorded no solver work: %+v", sum.Metrics)
	}
}
