package run_test

import (
	"testing"

	"specrt/internal/harness"
	"specrt/internal/loops"
	"specrt/internal/run"
)

// TestSteadyStateAllocs guards the allocation budget of a warmed
// execution: deferred protocol messages, iteration contexts, writeback
// copies, LRPD grouping and cache frame bookkeeping all reuse their
// storage, so what remains is per-run setup (machine, controller). With
// warm pools the run measures HW 741, SW 425 on linux/amd64 with Go 1.24
// (AllocsPerRun pins GOMAXPROCS to 1, so the executions run chained). A
// collection that empties the engine pool adds a fresh engine's bucket
// growth back, so each bound stays about 1.25x the count measured
// before engines were pooled (HW 3322, SW 3561); a regression in one of
// the per-access paths adds tens of thousands.
func TestSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		mode run.Mode
		max  float64
	}{
		{run.HW, 4150},
		{run.SW, 4450},
	}
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			w := loops.Ocean()
			cfg := run.Config{Procs: 16, Mode: tc.mode, Contention: true,
				MaxExecutions: harness.Default.OceanExecs}
			run.MustExecute(w, cfg) // fill the pools
			allocs := testing.AllocsPerRun(3, func() { run.MustExecute(w, cfg) })
			if allocs > tc.max {
				t.Errorf("default-scale Ocean %s: %.0f allocs per execution, budget %.0f",
					tc.mode, allocs, tc.max)
			}
		})
	}
}
