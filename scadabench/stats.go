package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailPercentiles is the ladder tail metrics are read from. Each
// workload fixes its rung: the highest that leaves at least minBeyond
// samples beyond it at the sample count the workload is sized for, so
// two commits compare the same percentile even when one completes
// more operations in the window.
var tailPercentiles = []int{99, 95, 90, 75, 50}

const minBeyond = 10

// tailPercentile returns want when n samples leave minBeyond beyond it,
// else the highest lower rung that does; ok is false when even the
// median leaves too few.
func tailPercentile(n, want int) (int, bool) {
	for _, p := range tailPercentiles {
		if p <= want && float64(n)*float64(100-p)/100 >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// metric is one named measurement with its unit and sample count.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int    // samples behind the value
	Note  string // e.g. the tail percentile used
}

func printMetric(w io.Writer, m metric) {
	note := ""
	if m.Note != "" {
		note = " " + m.Note
	}
	fmt.Fprintf(w, "metric %-34s %14.6f %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, note)
}

// samplesFor is the sample count at which percentile p leaves
// minBeyond samples beyond it.
func samplesFor(p int) int { return (minBeyond*100 + (100 - p) - 1) / (100 - p) }

// latencyMetrics renders one latency sample set as <prefix>_p50_ms and
// <prefix>_tail_ms, the tail at percentile want or, with too few
// samples for it, the rung below that has them (noted). ok is false
// when no rung leaves minBeyond samples beyond it.
func latencyMetrics(prefix string, ms []float64, want int) (p50 metric, tail metric, ok bool) {
	p50 = metric{Name: prefix + "_p50_ms", Value: median(ms), Unit: "ms", N: len(ms)}
	p, ok := tailPercentile(len(ms), want)
	if !ok {
		return p50, metric{}, false
	}
	note := fmt.Sprintf("p%d", p)
	if p != want {
		note += fmt.Sprintf(" (too few samples for the workload's p%d)", want)
	}
	tail = metric{Name: prefix + "_tail_ms", Value: quantile(ms, float64(p)/100), Unit: "ms", N: len(ms), Note: note}
	return p50, tail, true
}
