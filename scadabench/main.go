// Command scadabench is scadaver's benchmark. One invocation runs one
// workload — cold-verify, boundary-sweep, certified-verify or
// served-mix — for a timed window, checks every verdict the program
// returned with an independent oracle (BFS reachability and exhaustive
// search over failure sets, see oracle.go), and prints its metrics, one
// per line with unit and sample count, then one JSON summary line.
//
//	scadabench --workload cold-verify --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 records spans
// around every call into the program on an untraced and a traced part
// of the run, prints the per-layer metrics and the tracing overhead, and
// writes the spans to --spans-dir. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"scadaver/internal/core"
)

// params are what a workload's set-up takes from the command line.
type params struct {
	// seed draws the configurations and the served deltas.
	seed int64
	// extra options reach every analyzer the workload builds (the
	// benchmark's tests inject faults through them).
	extra []core.Option
}

type workloadSpec struct {
	name string
	loop string
	run  func(p params, tr *tracer, window time.Duration, traced bool) (*outcome, error)
}

// Tail percentiles per workload (see tailPercentiles), fixed so that
// two commits compare the same percentile. cold-verify's 324 verdicts a
// pass leave 32 beyond p90, and boundary-sweep's 56 jobs leave 14
// beyond p75. certified-verify's 126 verdicts would allow p90, but a
// certified verdict's audit cost is heavy-tailed and its p90 spread
// 0.19 of its median over ten seeds at 120 verdicts, so it reads p75. served-mix's
// slowest read decile is the reads that queued behind a PATCH, whose
// number varies from run to run (p90 spread 112-145 ms over three
// seeds, p75 70-72 ms).
const (
	coldTail      = 90
	certifiedTail = 75
	sweepTail     = 75
	verifyTail    = 75
	patchTail     = 75
)

var workloads = []workloadSpec{
	{"cold-verify", "closed loop, 1 client: one verification call after another", runCold},
	{"boundary-sweep", "closed loop, 1 client: boundary jobs back to back", runSweep},
	{"certified-verify", "closed loop, 1 client: one certified verification call after another", runCertified},
	{"served-mix", fmt.Sprintf("closed loop, %d clients over HTTP, one configuration each: reads and PATCH writes", servedClients), runServed},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scadabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-verify | boundary-sweep | certified-verify | served-mix")
	seed := fs.Int64("seed", 1, "input seed: draws every configuration and served delta")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spansDir := fs.String("spans-dir", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "scadabench: need --workload (one of cold-verify, boundary-sweep, certified-verify, served-mix), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	traced := *traceFlag == 1
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	out, err := spec.run(params{seed: *seed}, tr, window, traced)
	if err != nil {
		fmt.Fprintf(stderr, "scadabench: %s: %v\n", spec.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d window %.3fs loop %q clients %d GOMAXPROCS %d NumCPU %d\n",
		spec.name, *seed, out.window.Seconds(), spec.loop, out.clients, runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, line := range out.info {
		fmt.Fprintln(stdout, line)
	}
	for _, m := range out.e2e {
		printMetric(stdout, m)
	}
	for _, f := range out.failures {
		fmt.Fprintln(stdout, "failed:", f)
	}
	for _, f := range out.mismatches {
		fmt.Fprintln(stdout, "nondeterministic:", f)
	}
	metrics := out.e2eJSON
	if traced {
		tr.finish()
		path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", spec.name, *seed))
		if err := os.MkdirAll(*spansDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "scadabench: %v\n", err)
			return 1
		}
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "scadabench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(tr.spans), path)
		metrics = layerMetrics(tr, out)
		names := make([]string, 0, len(metrics))
		for n := range metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			printMetric(stdout, metric{Name: n, Value: metrics[n].Value, Unit: metrics[n].Unit, N: out.layerN[n]})
		}
	}
	summary := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.correct, out.attempted, len(out.failures), metrics}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(stderr, "scadabench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload run, measured and judged.
type outcome struct {
	window     time.Duration
	clients    int
	attempted  int
	failures   []string // failed operations: errors, non-2xx, Unsolved, wrong or uncertified verdicts
	mismatches []string // determinism check failures
	correct    bool
	info       []string
	e2e        []metric              // every end-to-end metric, printed
	e2eJSON    map[string]jsonMetric // the BENCHMARK.json end-to-end set
	layerRun   map[string]float64    // per-layer numbers measured outside spans
	layerN     map[string]int
	overhead   float64 // traced ÷ untraced mean operation latency − 1
}

// Setup repeats: setup_s is the median of this many set-ups.
const (
	libSetupRepeats    = 15
	servedSetupRepeats = 5
)

// timeSetups runs setup n times and returns each duration. Before each
// set-up, untimed, release (when non-nil) tears down the previous one
// and its memory is returned to the OS, so peak_rss_mb reflects one
// set-up and its window, not the repeats.
func timeSetups(n int, release func(), setup func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		if release != nil && i > 0 {
			release()
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// oracleWorkers is how many exhaustive searches run at once after the
// timed window.
func oracleWorkers() int { return runtime.GOMAXPROCS(0) }

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// finishE2E fills the printed and JSON end-to-end metrics shared by
// every workload. prefix names the operation the latency metrics time
// ("verdict" or "verify"); perSecond names the throughput metric.
func (o *outcome) finishE2E(setups []float64, lat []float64, prefix string, tailPct int, perSecond string, completed int, rss float64) {
	setup := metric{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups)}
	p50, tail, ok := latencyMetrics(prefix, lat, tailPct)
	if !ok {
		tail = metric{Name: prefix + "_tail_ms", Value: quantile(lat, 1), Unit: "ms", N: len(lat), Note: "max (too few samples for a percentile)"}
	}
	tput := metric{Name: perSecond, Value: float64(completed) / o.window.Seconds(), Unit: "1/s", N: completed}
	share := 0.0
	if o.attempted > 0 {
		share = float64(len(o.failures)) / float64(o.attempted)
	}
	failed := metric{Name: "failed_share", Value: share, Unit: "ratio", N: o.attempted}
	mem := metric{Name: "peak_rss_mb", Value: rss, Unit: "MB", N: 1}
	o.e2e = append([]metric{setup, p50, tail, tput}, o.e2e...)
	o.e2e = append(o.e2e, failed, mem)
	o.e2eJSON = map[string]jsonMetric{
		"setup_s":          {setup.Value, "s"},
		"latency_p50_ms":   {p50.Value, "ms"},
		"latency_tail_ms":  {tail.Value, "ms"},
		"throughput_per_s": {tput.Value, "1/s"},
	}
}
