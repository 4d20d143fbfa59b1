package main

import (
	"fmt"
	"strings"
	"time"

	"scadaver/internal/obs"
	"scadaver/internal/sat"
)

func runCold(p params, tr *tracer, d time.Duration, traced bool) (*outcome, error) {
	return runLib(tr, d, traced, coldTail, func() (*libInstance, error) { return coldSetup(p, tr, false) })
}

func runCertified(p params, tr *tracer, d time.Duration, traced bool) (*outcome, error) {
	return runLib(tr, d, traced, certifiedTail, func() (*libInstance, error) { return coldSetup(p, tr, true) })
}

func runSweep(p params, tr *tracer, d time.Duration, traced bool) (*outcome, error) {
	t0 := time.Now()
	in, err := sweepSetup(p)
	if err != nil {
		return nil, err
	}
	selectS := time.Since(t0).Seconds()
	// setup_s times input generation only; choosing the boundary jobs is
	// reported beside it.
	o, err := runLib(tr, d, traced, sweepTail, func() (*libInstance, error) { return in, in.regenerate(tr) })
	if err != nil {
		return nil, err
	}
	o.info = append([]string{fmt.Sprintf("select_s %.3f (%d boundary jobs with k*=%d)", selectS, len(in.sweep), sweepKStar)}, o.info...)
	return o, nil
}

// runLib measures a library workload: set-up repeated libSetupRepeats
// times, one window (a traced run traces its odd operations), then the
// determinism re-run, the oracle and the determinism check over every
// verdict. Latencies and throughput count untraced decided verdicts
// only (see libVerdict.decided). boundary-sweep's latency metrics time
// whole boundary jobs; its verdict latencies are printed beside them.
func runLib(tr *tracer, d time.Duration, traced bool, tailPct int, setup func() (*libInstance, error)) (*outcome, error) {
	var in *libInstance
	setups, err := timeSetups(libSetupRepeats, nil, func() error {
		var err error
		in, err = setup()
		return err
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{clients: 1}
	// A traced run reports per-layer metrics only, so its untraced part
	// need not reach the tail's sample count.
	minSamples := samplesFor(tailPct)
	if traced {
		minSamples = 0
	}
	w, err := in.run(tr, d, minSamples)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	decided := verdictLatencies(w, in.certify, false)
	lat, prefix := decided, "verdict"
	if len(in.sweep) > 0 {
		lat, prefix = w.jobs, "job"
	}
	if traced {
		o.overhead = meanOf(verdictLatencies(w, in.certify, true))/meanOf(decided) - 1
	}
	re, err := in.rerun()
	if err != nil {
		return nil, err
	}
	windows := []*libWindow{w, re}
	o.window = w.wall
	for _, w := range windows {
		o.attempted += len(w.verdicts)
	}
	t0 := time.Now()
	failures, wrong, mismatches, digest := judgeLib(newOracle(), in.certify, windows, oracleWorkers())
	o.failures, o.mismatches = failures, mismatches
	o.correct = len(failures) == 0 && len(mismatches) == 0
	completed := len(decided) + len(verdictLatencies(w, in.certify, true))
	o.info = append(o.info,
		fmt.Sprintf("configurations %d passes %d verdicts %d decided %d", in.units(), w.passes, len(w.verdicts), completed),
		fmt.Sprintf("counters_digest %s", digest),
		fmt.Sprintf("oracle_s %.3f wrong_verdicts %d", time.Since(t0).Seconds(), wrong))
	if prefix != "verdict" {
		p50, tail, _ := latencyMetrics("verdict", decided, tailPct)
		o.e2e = append(o.e2e, p50, tail)
	}
	o.finishE2E(setups, lat, prefix, tailPct, "verdicts_per_s", completed, rss)
	return o, nil
}

// verdictLatencies are the wall times of the window's decided
// verdicts, traced or untraced.
func verdictLatencies(w *libWindow, certify, traced bool) []float64 {
	var out []float64
	for _, v := range w.verdicts {
		if v.traced == traced && v.decided(certify) {
			out = append(out, v.wallMs)
		}
	}
	return out
}

// runServed measures served-mix. A traced run traces alternate slices
// of one window (see servedInstance.run); its latencies come from the
// untraced slices. Latencies and throughput count 2xx replies with a
// decided verdict only.
func runServed(p params, tr *tracer, d time.Duration, traced bool) (*outcome, error) {
	var inst *servedInstance
	setups, err := timeSetups(servedSetupRepeats, func() { inst.close() }, func() error {
		var err error
		inst, err = servedSetup(p, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{clients: servedClients}
	w, err := inst.run(tr, d)
	inst.close()
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	o.window = w.wall
	o.attempted = len(w.reads) + len(w.patches)
	t0 := time.Now()
	j := judgeServed(newOracle(), inst, w, oracleWorkers())
	o.failures = j.failures
	// Stale reads are the named defect below; any other failure makes
	// the run incorrect.
	o.correct = len(j.failures) == len(j.stale)
	readLat, readTraced := readLatencies(w, false), readLatencies(w, true)
	var patchLat []float64
	completed := len(readLat) + len(readTraced)
	for _, pr := range w.patches {
		if pr.err == "" {
			completed++
			if !pr.traced {
				patchLat = append(patchLat, pr.wallMs)
			}
		}
	}
	if traced {
		o.overhead = meanOf(readTraced)/meanOf(readLat) - 1
	}
	o.info = append(o.info,
		fmt.Sprintf("configs %d passes %d reads %d patches %d completed %d", len(inst.names), w.passes, len(w.reads), len(w.patches), completed),
		fmt.Sprintf("oracle_s %.3f distinct_checks %d wrong_verdicts %d stale_reads %d", time.Since(t0).Seconds(), j.checked, j.wrong, len(j.stale)),
		"known defect: the coordinator routes /v1/verify by (config, query) hash but sends PATCH only to the config's ring owner, so reads routed to the other member answer for the superseded version; each such read is listed as a stale read and counted in failed_share")
	p50, tail, _ := latencyMetrics("patch", patchLat, patchTail)
	o.e2e = append(o.e2e, p50)
	if strings.HasPrefix(tail.Note, fmt.Sprintf("p%d", patchTail)) {
		o.e2e = append(o.e2e, tail)
	} else {
		o.info = append(o.info, fmt.Sprintf("patch_tail_ms not reported: %d samples leave fewer than %d beyond p%d", len(patchLat), minBeyond, patchTail))
	}
	o.layerRun, o.layerN = clusterLayers(w)
	o.finishE2E(setups, readLat, "verify", verifyTail, "requests_per_s", completed, rss)
	return o, nil
}

// readLatencies are the wall times of the window's answered reads with
// a decided verdict, traced or untraced.
func readLatencies(w *servedWindow, traced bool) []float64 {
	var out []float64
	for _, r := range w.reads {
		if r.traced == traced && r.err == "" && r.resp.Result != nil && r.resp.Result.Status != sat.Unsolved {
			out = append(out, r.wallMs)
		}
	}
	return out
}

// histDelta sums one histogram family's count and sum (seconds) over
// the series whose labels include want, between two snapshots.
func histDelta(before, after obs.Snapshot, name string, want map[string]string) (count, secs float64) {
	acc := func(s obs.Snapshot, sign float64) {
		for _, h := range s.Histograms {
			if h.Name == name && labelsMatch(h.Labels, want) {
				count += sign * float64(h.Count)
				secs += sign * h.Sum
			}
		}
	}
	acc(after, 1)
	acc(before, -1)
	return count, secs
}

func counterDelta(before, after obs.Snapshot, name string, want map[string]string) float64 {
	v := 0.0
	for _, c := range after.Counters {
		if c.Name == name && labelsMatch(c.Labels, want) {
			v += c.Value
		}
	}
	for _, c := range before.Counters {
		if c.Name == name && labelsMatch(c.Labels, want) {
			v -= c.Value
		}
	}
	return v
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// clusterLayers reads the serve and cluster layer numbers from the
// members' and the coordinator's /metrics.json around the window.
func clusterLayers(w *servedWindow) (map[string]float64, map[string]int) {
	vals, ns := map[string]float64{}, map[string]int{}
	nm := len(w.before) - 1 // members first, coordinator last
	var handlerSecs, handlerCount float64
	var perMember []float64
	for _, route := range []string{"verify", "patch"} {
		var qc, qs, hc, hs float64
		for i := 0; i < nm; i++ {
			c, s := histDelta(w.before[i], w.after[i], "scadaver_queue_wait_seconds", map[string]string{"route": route})
			qc, qs = qc+c, qs+s
			c, s = histDelta(w.before[i], w.after[i], "scadaver_http_request_seconds", map[string]string{"route": route})
			hc, hs = hc+c, hs+s
		}
		vals["serve.queue_wait_ms."+route] = safeDiv(qs*1000, qc)
		ns["serve.queue_wait_ms."+route] = int(qc)
		vals["serve.handler_ms."+route] = safeDiv(hs*1000, hc)
		ns["serve.handler_ms."+route] = int(hc)
		handlerSecs += hs
		handlerCount += hc
	}
	var shed, reqs float64
	for i := 0; i < nm; i++ {
		shed += counterDelta(w.before[i], w.after[i], "scadaver_shed_total", nil)
		n := counterDelta(w.before[i], w.after[i], "scadaver_http_requests_total", map[string]string{"route": "verify"}) +
			counterDelta(w.before[i], w.after[i], "scadaver_http_requests_total", map[string]string{"route": "patch"})
		reqs += n
		perMember = append(perMember, n)
	}
	vals["serve.shed_share"] = safeDiv(shed, reqs)
	ns["serve.shed_share"] = int(reqs)
	fc, fs := histDelta(w.before[nm], w.after[nm], "scadaver_cluster_forward_seconds", nil)
	vals["cluster.hop_ms"] = safeDiv((fs-handlerSecs)*1000, fc)
	ns["cluster.hop_ms"] = int(fc)
	top := 0.0
	for _, n := range perMember {
		top = max(top, n)
	}
	vals["cluster.member_skew"] = safeDiv(top, meanOf(perMember))
	ns["cluster.member_skew"] = len(perMember)
	vals["cluster.failovers"] = counterDelta(w.before[nm], w.after[nm], "scadaver_cluster_failovers_total", nil)
	ns["cluster.failovers"] = int(fc)
	return vals, ns
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Per-layer metrics. Span attributes are reported as a per-call median
// (.p50) and a run total (.total); a few only as a total; ratios are
// taken over the run's totals.
var (
	attrP50Total = []string{
		"synth.generate_ms", "scadanet.apply_ms", "logic.vars", "logic.clauses",
		"core.build_ms", "core.encode_ms", "core.preprocess_ms", "core.solve_ms", "core.decode_ms",
		"core.audit_ms", "core.proof_clauses", "core.unattributed_ms", "core.call_overhead_ms",
		"core.carried_learnts", "sat.conflicts", "sat.decisions", "sat.propagations",
	}
	attrTotal  = []string{"core.quarantined", "sat.elim_vars", "sat.simplify_ms"}
	runLayers  = []string{"serve.queue_wait_ms.verify", "serve.queue_wait_ms.patch", "serve.handler_ms.verify", "serve.handler_ms.patch", "serve.shed_share", "cluster.hop_ms", "cluster.member_skew", "cluster.failovers"}
	selfLayers = []string{"synth", "scadanet", "core", "http", "op"}
)

func unitOf(name string) string {
	switch {
	case name == "sat.props_per_ms":
		return "1/ms"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "share") || strings.Contains(name, "ratio") || strings.Contains(name, "skew"):
		return "ratio"
	}
	return "count"
}

// layerMetrics assembles the --trace 1 metric set: every per-layer
// metric BENCHMARK.json lists, zero where the workload does not reach
// the layer.
func layerMetrics(tr *tracer, o *outcome) map[string]jsonMetric {
	out := map[string]jsonMetric{}
	if o.layerN == nil {
		o.layerN = map[string]int{}
	}
	put := func(name string, v float64, n int) {
		out[name] = jsonMetric{Value: v, Unit: unitOf(name)}
		o.layerN[name] = n
	}
	samples := tr.attrSamples()
	for _, n := range attrP50Total {
		put(n+".p50", median(samples[n]), len(samples[n]))
		put(n+".total", sum(samples[n]), len(samples[n]))
	}
	for _, n := range attrTotal {
		put(n+".total", sum(samples[n]), len(samples[n]))
	}
	put("core.audit_share", safeDiv(sum(samples["core.audit_ms"]), sum(samples["core.call_ms"])), len(samples["core.call_ms"]))
	reuse, reenc := sum(samples["core.delta_reuse"]), sum(samples["core.delta_reencoded"])
	put("core.delta_reuse_ratio", safeDiv(reuse, reuse+reenc), len(samples["core.delta_reuse"]))
	put("sat.props_per_ms", safeDiv(sum(samples["sat.propagations"]), sum(samples["core.solve_ms"])), len(samples["core.solve_ms"]))
	for _, n := range runLayers {
		put(n, o.layerRun[n], o.layerN[n])
	}
	self := tr.selfByLayer()
	for _, l := range selfLayers {
		put("trace.self_ms."+l, self[l], len(tr.spans))
	}
	put("trace.overhead_share", o.overhead, 2)
	put("trace.spans", float64(len(tr.spans)), len(tr.spans))
	return out
}
