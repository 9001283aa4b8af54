// Command benchjson converts `go test -bench` output on stdin into a
// JSON snapshot on stdout, so benchmark baselines can be committed and
// diffed across PRs:
//
//	go test -bench . -benchmem -benchtime=1x | go run ./cmd/benchjson > BENCH.json
//
// Each benchmark line becomes an object with its name (GOMAXPROCS suffix
// stripped), iterations, ns/op, and any further reported metrics
// (B/op, allocs/op, custom ReportMetric units). Context lines (goos,
// goarch, pkg, cpu) are captured into the snapshot header, together with
// the run's GOMAXPROCS (the benchmark names' suffix, absent at 1) and the
// host's nproc (benchjson reads the run through a pipe on the same host),
// since the same code measures differently on hosts of other widths.
//
// With -baseline, the parsed run is instead compared against a committed
// snapshot and the command exits 1 on regression:
//
//	go test -bench . -benchmem -benchtime=1x | \
//	    go run ./cmd/benchjson -baseline BENCH_seed.json -tolerance 25%
//
// allocs/op is compared by default (deterministic across hosts); add -ns
// to also compare ns/op, which is noisy on shared CI runners.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the full parsed run.
type Snapshot struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

func main() {
	baseline := flag.String("baseline", "", "compare against this committed snapshot instead of emitting JSON")
	toleranceFlag := flag.String("tolerance", "25%", "allowed allocs/op growth over the baseline before failing (e.g. 25%)")
	compareNs := flag.Bool("ns", false, "also compare ns/op against the baseline (noisy on shared runners)")
	nsToleranceFlag := flag.String("ns-tolerance", "25%", "allowed ns/op growth over the baseline before failing (with -ns)")
	matchFlag := flag.String("match", "", "only compare baseline benchmarks matching this regexp (for partial -bench runs)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: go test -bench . -benchmem | %s [-baseline FILE [-tolerance PCT] [-ns [-ns-tolerance PCT]] [-match RE]]\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: unexpected argument %q (input is read from stdin)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	snap, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	if *baseline != "" {
		tol, err := parseTolerance(*toleranceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		nsTol, err := parseTolerance(*nsToleranceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		var match *regexp.Regexp
		if *matchFlag != "" {
			if match, err = regexp.Compile(*matchFlag); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: bad -match:", err)
				os.Exit(2)
			}
		}
		results, _, err := compare(snap, *baseline, tol, nsTol, *compareNs, match)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		os.Exit(reportCompare(results))
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner) (*Snapshot, error) {
	snap := &Snapshot{Context: map[string]string{"nproc": strconv.Itoa(runtime.NumCPU())}}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			b, procs, err := parseBench(line)
			if err != nil {
				return nil, err
			}
			if len(snap.Benchmarks) == 0 {
				snap.Context["GOMAXPROCS"] = strconv.Itoa(procs)
			}
			snap.Benchmarks = append(snap.Benchmarks, b)
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"),
			strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			snap.Context[k] = strings.TrimSpace(v)
		}
	}
	return snap, sc.Err()
}

// parseBench parses one result line and returns the GOMAXPROCS it ran
// at (the name's suffix; go test omits it at 1):
//
//	BenchmarkName-8   1234   987.6 ns/op   48 B/op   2 allocs/op
func parseBench(line string) (Benchmark, int, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, 0, fmt.Errorf("short benchmark line %q", line)
	}
	name := fields[0]
	procs := 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n // strip the GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, 0, fmt.Errorf("bad iteration count in %q: %v", line, err)
	}
	b := Benchmark{Name: name, Iters: iters, Metrics: map[string]float64{}}
	// The rest alternates value, unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, 0, fmt.Errorf("bad metric value in %q: %v", line, err)
		}
		if fields[i+1] == "ns/op" {
			b.NsPerOp = v
		} else {
			b.Metrics[fields[i+1]] = v
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, procs, nil
}
