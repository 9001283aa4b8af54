package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; names must match metricName.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// metricName is the alphabet BENCHMARK.json allows for metric names.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// tailLadder is the set of percentiles a tail can be reported at. The
// rungs are a decade apart in "samples beyond", so the chosen rung only
// moves when a run's sample count changes tenfold.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// pctl returns the nearest-rank p-th percentile of sorted samples and how
// many samples lie beyond it.
func pctl(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	// The epsilon keeps rungs like 99.9% of 10000 from rounding up a rank.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// tail returns the highest ladder percentile with at least 10 samples
// beyond it, its value, and false when even the median has fewer.
func tail(sorted []float64) (p, v float64, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if val, beyond := pctl(sorted, tailLadder[i]); beyond >= 10 {
			return tailLadder[i], val, true
		}
	}
	return 0, 0, false
}

// latencySummary is the median and tail of a set of latencies, with the
// sample count and the tail rung used.
type latencySummary struct {
	N            int
	P50, Tail    float64
	TailPctl     float64
	TailComplete bool
}

func summarize(samples []float64) latencySummary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var out latencySummary
	out.N = len(s)
	if len(s) == 0 {
		return out
	}
	out.P50 = median(s)
	out.TailPctl, out.Tail, out.TailComplete = tail(s)
	if !out.TailComplete {
		// Too few samples for any rung: report the maximum and say so.
		out.TailPctl, out.Tail = 100, s[len(s)-1]
	}
	return out
}

// median of a sample: the middle value, or the mean of the two middle
// values of an even count (0 for an empty sample). Averaging matters for
// job latencies, whose samples cluster by job: with an even count the two
// middle samples often come from different jobs, and the average keeps
// host noise from flipping the median between the two clusters.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// printHuman writes one "name value unit" line per metric in name order.
func printHuman(w io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// printResult writes the JSON result as one line.
func printResult(w io.Writer, r result) error {
	for n := range r.Metrics {
		if !metricName.MatchString(n) {
			return fmt.Errorf("bad metric name %q", n)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
