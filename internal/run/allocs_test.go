package run_test

import (
	"runtime"
	"testing"

	"specrt/internal/harness"
	"specrt/internal/loops"
	"specrt/internal/run"
)

// warmAllocBound is the allocation budget of a warmed default-scale
// Ocean execution per mode: deferred protocol messages, iteration
// contexts, writeback copies, LRPD grouping and cache frame bookkeeping
// all reuse their storage, and the free lists keep engines, tables,
// cache storage and buffers across runs whatever the collector does, so
// what remains is per-run setup (machine, controller). The warm runs
// measure HW 708, SW 368 on linux/amd64 with Go 1.24 (executions
// chained at GOMAXPROCS 1), with or without a collection in between;
// each bound is 1.25x that. A regression in one of the per-access paths
// adds tens of thousands, and a pool emptied by a collection (as a
// sync.Pool is) adds thousands.
var warmAllocBound = map[run.Mode]float64{run.HW: 885, run.SW: 460}

func oceanDefault(mode run.Mode) (*run.Workload, run.Config) {
	return loops.Ocean(), run.Config{Procs: 16, Mode: mode, Contention: true,
		MaxExecutions: harness.Default.OceanExecs}
}

// TestSteadyStateAllocs guards the allocation budget of a warmed
// execution (AllocsPerRun pins GOMAXPROCS to 1, so the executions run
// chained).
func TestSteadyStateAllocs(t *testing.T) {
	for _, mode := range []run.Mode{run.HW, run.SW} {
		t.Run(mode.String(), func(t *testing.T) {
			w, cfg := oceanDefault(mode)
			run.MustExecute(w, cfg) // fill the free lists
			allocs := testing.AllocsPerRun(3, func() { run.MustExecute(w, cfg) })
			t.Logf("%.0f allocs per execution", allocs)
			if allocs > warmAllocBound[mode] {
				t.Errorf("default-scale Ocean %s: %.0f allocs per execution, budget %.0f",
					mode, allocs, warmAllocBound[mode])
			}
		})
	}
}

// TestAllocsSurviveCollection checks that garbage collection does not
// empty the free lists: after a warm-up run and two collections (the
// second clears what a sync.Pool's victim cache kept through the first),
// the next execution still fits the warm budget. AllocsPerRun cannot
// measure this, as its own warm-up run would refill any emptied pool.
func TestAllocsSurviveCollection(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // chained executions, as above
	w, cfg := oceanDefault(run.HW)
	run.MustExecute(w, cfg)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run.MustExecute(w, cfg)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs - before.Mallocs)
	t.Logf("%.0f allocs", allocs)
	if allocs > warmAllocBound[run.HW] {
		t.Errorf("default-scale Ocean HW after two collections: %.0f allocs, warm budget %.0f",
			allocs, warmAllocBound[run.HW])
	}
}
