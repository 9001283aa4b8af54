package run_test

import (
	"bytes"
	"fmt"
	"testing"

	"specrt/internal/harness"
	"specrt/internal/interconnect"
	"specrt/internal/loops"
	"specrt/internal/run"
	"specrt/internal/sched"
	"specrt/internal/stats"
)

// encoded runs w under cfg on n workers and returns the encoded report.
func encoded(t *testing.T, n int, w *run.Workload, cfg run.Config) (*run.Result, []byte) {
	t.Helper()
	defer run.ForceWorkers(n)()
	res, err := run.Execute(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := stats.ReportOf(res).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return res, b
}

// sameOnOneAndFour asserts the report from four workers equals the
// chained single-worker report byte for byte.
func sameOnOneAndFour(t *testing.T, w *run.Workload, cfg run.Config) *run.Result {
	t.Helper()
	res, one := encoded(t, 1, w, cfg)
	_, four := encoded(t, 4, w, cfg)
	if !bytes.Equal(one, four) {
		t.Fatalf("four workers diverge from one:\n one: %s\nfour: %s", one, four)
	}
	return res
}

// repeated gives a single-execution workload several executions.
func repeated(w *run.Workload, execs int) *run.Workload {
	c := *w
	c.Executions = execs
	return &c
}

// TestParallelExecutionsMatchChained is the differential test of the
// execution pool: every loop under every scheme, the forced-failure
// loops, the ablation knobs that change an execution's shape, and every
// topology must report identically on one worker and on four.
func TestParallelExecutionsMatchChained(t *testing.T) {
	sc := harness.Quick
	for _, name := range harness.LoopNames {
		for _, mode := range run.Modes {
			procs := 8
			if mode == run.Serial {
				procs = 1
			}
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				w, cfg, err := harness.ResolveJob(harness.JobSpec{Workload: name,
					Config: run.Config{Procs: procs, Mode: mode, Contention: true}}, sc)
				if err != nil {
					t.Fatal(err)
				}
				sameOnOneAndFour(t, w, cfg)
			})
		}
	}

	// Forced failures, repeated so that every execution fails and
	// re-executes serially inside a worker.
	for _, w := range loops.ForcedFails(sc.P3mIters) {
		for _, mode := range []run.Mode{run.SW, run.HW} {
			t.Run(fmt.Sprintf("%s/%s", w.Name, mode), func(t *testing.T) {
				res := sameOnOneAndFour(t, repeated(w, 5),
					run.Config{Procs: 8, Mode: mode, Contention: true})
				if res.Failures+res.Exceptions == 0 {
					t.Fatal("forced-failure loop did not fail")
				}
			})
		}
	}

	knobs := []struct {
		name string
		mod  func(*run.Config)
	}{
		{"epoch", func(c *run.Config) { c.EpochIters = 8 }},
		{"stallwrites", func(c *run.Config) { c.StallWrites = true }},
		{"invariants", func(c *run.Config) { c.CheckInvariants = true }},
		{"bus", func(c *run.Config) { c.Topology = interconnect.Bus }},
		{"crossbar", func(c *run.Config) { c.Topology = interconnect.Crossbar }},
		{"mesh", func(c *run.Config) { c.Topology = interconnect.Mesh }},
	}
	for _, k := range knobs {
		for _, name := range []string{"Adm", "Track"} {
			for _, mode := range []run.Mode{run.SW, run.HW} {
				t.Run(fmt.Sprintf("%s/%s/%s", k.name, name, mode), func(t *testing.T) {
					w, cfg, err := harness.ResolveJob(harness.JobSpec{Workload: name,
						Config: run.Config{Procs: 8, Mode: mode, Contention: true}}, sc)
					if err != nil {
						t.Fatal(err)
					}
					k.mod(&cfg)
					sameOnOneAndFour(t, w, cfg)
				})
			}
		}
	}

	// AdaptiveAfter: two failures in a row switch the rest of the run to
	// serial fallbacks. Such runs stay chained however many workers are
	// asked for, since executions simulated ahead would be wasted.
	t.Run("adaptive-after", func(t *testing.T) {
		res := sameOnOneAndFour(t, repeated(loops.OceanForcedFail(), 6),
			run.Config{Procs: 8, Mode: run.HW, Contention: true, AdaptiveAfter: 2})
		if res.SerialFallbacks != 4 {
			t.Fatalf("serial fallbacks = %d, want 4", res.SerialFallbacks)
		}
	})
}

// TestParallelReRunsInteractingBoundaries: at default scale, Ocean's
// hardware run on 8 processors leaves home-server reservations that its
// next execution runs into. The merge must re-run those executions
// seeded with the carried reservations, and still match the chained run.
func TestParallelReRunsInteractingBoundaries(t *testing.T) {
	w, cfg, err := harness.ResolveJob(harness.JobSpec{Workload: "Ocean",
		Config: run.Config{Procs: 8, Mode: run.HW, Contention: true}}, harness.Default)
	if err != nil {
		t.Fatal(err)
	}
	before := run.Reruns()
	sameOnOneAndFour(t, w, cfg)
	if n := run.Reruns() - before; n == 0 {
		t.Fatal("no execution was re-run: the interacting boundaries were not exercised")
	}
}

// TestParallelFirstFailureAt: a failure in a later execution reports the
// chained session's absolute time, not the time on the worker's session.
func TestParallelFirstFailureAt(t *testing.T) {
	base := loops.Ocean()
	w := *base
	w.Name = "Ocean-late-fail"
	w.Executions = 6
	w.Body = func(exec, iter int, c *run.Ctx) {
		if exec == 4 && iter == 1 {
			c.Store(0, 0)
		}
		if exec == 4 && iter == 2 {
			c.Load(0, 0)
		}
		base.Body(exec, iter, c)
	}
	// Iteration-wise blocks put the dependent pair on different
	// processors.
	w.HWSched = sched.Config{Kind: sched.Dynamic, Chunk: 1}
	cfg := run.Config{Procs: 8, Mode: run.HW, Contention: true}
	one, _ := encoded(t, 1, &w, cfg)
	four, _ := encoded(t, 4, &w, cfg)
	if one.FirstFailure == nil || four.FirstFailure == nil {
		t.Fatalf("no failure recorded: %v / %v", one.FirstFailure, four.FirstFailure)
	}
	if one.FirstFailure.At != four.FirstFailure.At {
		t.Fatalf("FirstFailure.At = %d on four workers, %d chained",
			four.FirstFailure.At, one.FirstFailure.At)
	}
	// The failing execution is the fifth: the four clean ones before it
	// are part of its absolute time.
	cfg.MaxExecutions = 4
	head, _ := encoded(t, 1, &w, cfg)
	if head.Failures != 0 || one.FirstFailure.At < head.Cycles {
		t.Fatalf("FirstFailure.At = %d, but the four executions before it end at %d",
			one.FirstFailure.At, head.Cycles)
	}
}

// TestParallelCarriesAcrossUntouchedExecution: a home-server backlog
// left by one execution can outlast a short next execution that never
// visits that home, and still delay the execution after it. The merge
// must carry the reservation across the untouched execution.
func TestParallelCarriesAcrossUntouchedExecution(t *testing.T) {
	w := &run.Workload{
		Name:       "backlog",
		Executions: 6,
		Iterations: func(int) int { return 8 },
		Arrays:     []run.ArraySpec{{Name: "A", Elems: 1024, ElemSize: 4}},
		Body: func(exec, iter int, c *run.Ctx) {
			switch exec % 3 {
			case 0: // every processor misses on one home at the very end
				c.Compute(1000)
				c.Store(0, iter*16)
			case 1: // short, and no memory traffic at all
				c.Compute(10)
			case 2: // misses on the same home right away
				c.Store(0, 512+iter*16)
				c.Compute(100)
			}
		},
	}
	cfg := run.Config{Procs: 8, Mode: run.Ideal, Contention: true}
	before := run.Reruns()
	res := sameOnOneAndFour(t, w, cfg)
	if run.Reruns() == before {
		t.Fatal("no execution was re-run: the backlog did not reach past the short execution")
	}
	if res.HomeQueue.Stalls == 0 {
		t.Fatal("no home stalls: the workload built no backlog")
	}
}
