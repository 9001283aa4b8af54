package main

import (
	"bufio"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestParseRecordsHostWidth checks that a snapshot records the width it
// was measured at: the run's GOMAXPROCS from the benchmark names'
// suffix, and the host's nproc.
func TestParseRecordsHostWidth(t *testing.T) {
	for _, tc := range []struct {
		name, procs string
	}{
		{"BenchmarkX-8", "8"},
		{"BenchmarkX", "1"}, // go test omits the suffix at GOMAXPROCS=1
	} {
		in := "goos: linux\ncpu: Some CPU\n" + tc.name + "   3   1000 ns/op   5 allocs/op\nPASS\n"
		snap, err := parse(bufio.NewScanner(strings.NewReader(in)))
		if err != nil {
			t.Fatal(err)
		}
		if got := snap.Context["GOMAXPROCS"]; got != tc.procs {
			t.Errorf("%s: GOMAXPROCS = %q, want %q", tc.name, got, tc.procs)
		}
		if got, want := snap.Context["nproc"], strconv.Itoa(runtime.NumCPU()); got != want {
			t.Errorf("%s: nproc = %q, want %q", tc.name, got, want)
		}
		if snap.Context["cpu"] != "Some CPU" || snap.Benchmarks[0].Name != "BenchmarkX" {
			t.Errorf("%s: snapshot = %+v", tc.name, snap)
		}
	}
}
