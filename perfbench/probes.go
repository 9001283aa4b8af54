package main

import (
	"fmt"
	"sort"
	"time"

	"specrt/internal/core"
	"specrt/internal/directory"
	"specrt/internal/harness"
	"specrt/internal/interconnect"
	"specrt/internal/loops"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/run"
	"specrt/internal/sched"
	"specrt/internal/sim"
)

// shape is a simulated machine the probes run at: the paper's 16
// processors, or the wide-scale 1024-processor mesh with small caches.
type shape struct {
	name string
	cfg  run.Config
}

var (
	shapeP16   = shape{"p16", run.Config{Procs: 16, Mode: run.HW, Contention: true}}
	shapeP1024 = shape{"p1024", wideConfig(1024, directory.FullMap)}
)

// machineConfig is the machine.Config run builds for the shape.
func (s shape) machineConfig() machine.Config {
	mc := machine.DefaultConfig(s.cfg.Procs)
	mc.Contention = true
	mc.Net.Kind = s.cfg.Topology
	mc.DirMode = s.cfg.DirMode
	if s.cfg.L1Bytes > 0 {
		mc.L1.SizeBytes = s.cfg.L1Bytes
	}
	if s.cfg.L2Bytes > 0 {
		mc.L2.SizeBytes = s.cfg.L2Bytes
	}
	return mc
}

// minimalLoop has one iteration per processor, each reading and writing
// its own element, so run.Execute's cost is almost all session set-up
// and release. With fail, iterations 1 and 2 carry a cross-iteration
// dependence, so speculation aborts and the loop re-executes serially.
func minimalLoop(procs int, fail bool) *run.Workload {
	chunk1 := sched.Config{Kind: sched.Dynamic, Chunk: 1}
	return &run.Workload{
		Name:       "probe-minimal",
		Executions: 1,
		Iterations: func(int) int { return procs },
		Arrays:     []run.ArraySpec{{Name: "A", Elems: procs, ElemSize: 8, Test: core.NonPriv}},
		Body: func(_, iter int, c *run.Ctx) {
			if fail && iter == 1 {
				c.Store(0, 0)
			}
			if fail && iter == 2 {
				c.Load(0, 0)
			}
			c.Load(0, iter)
			c.Store(0, iter)
		},
		HWSched: chunk1, SWSched: chunk1, IdealSched: chunk1,
	}
}

// setupProbe returns the median host time of run.Execute on the
// minimal loop at a shape, after one untimed call.
func setupProbe(s shape) (time.Duration, error) {
	w := minimalLoop(s.cfg.Procs, false)
	var ds []float64
	for i := 0; i < 8; i++ {
		t := time.Now()
		if _, err := run.Execute(w, s.cfg); err != nil {
			return 0, fmt.Errorf("setup probe %s: %w", s.name, err)
		}
		if i > 0 {
			ds = append(ds, float64(time.Since(t)))
		}
	}
	return time.Duration(median(ds)), nil
}

// schemeProbes runs the minimal loop under every scheme at a shape, plus
// a failing HW run, recording run.Execute spans as probes (job -1). They
// stand in for a scheme the workload's own jobs never execute.
func schemeProbes(s shape, tr *tracer) error {
	for _, m := range run.Modes {
		for _, fail := range []bool{false, true} {
			if fail && m != run.HW {
				continue
			}
			cfg := s.cfg
			cfg.Mode = m
			if m == run.Serial {
				cfg.Procs, cfg.Topology, cfg.DirMode = 1, interconnect.Ideal, directory.FullMap
			}
			label := fmt.Sprintf("probe/%s/%s/fail=%v", s.name, modeLabel(m), fail)
			c := cell{label: label, scheme: m, build: func(*tracer, int, int) (*run.Workload, run.Config, error) {
				return minimalLoop(s.cfg.Procs, fail), cfg, nil
			}}
			for i := 0; i < 4; i++ {
				if out := runCell(c, -1, tr, nil, false); out.err != nil {
					return out.err
				}
			}
		}
	}
	return nil
}

// buildProbes times the loops constructors and harness resolution of
// every paper loop at a scale, as probe spans.
func buildProbes(sc harness.Scale, tr *tracer) error {
	ctors := []func() *run.Workload{
		loops.Ocean, func() *run.Workload { return loops.P3m(sc.P3mIters) }, loops.Adm, loops.Track,
		loops.OceanForcedFail, func() *run.Workload { return loops.P3mForcedFail(sc.P3mIters) },
		loops.AdmForcedFail, loops.TrackForcedFail,
	}
	for rep := 0; rep < 3; rep++ {
		for _, ctor := range ctors {
			s := tr.begin("loops.build", -1, -1)
			ctor()
			tr.end(s)
		}
		for _, name := range harness.LoopNames {
			s := tr.begin("harness.resolve", -1, -1)
			_, _, err := harness.ResolveJob(harness.JobSpec{Workload: name,
				Config: run.Config{Procs: 16, Mode: run.HW}}, sc)
			tr.end(s)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// timeOp returns the median ns per call of op over five batches, each
// sized to run for at least 5 ms, after a warm-up. Sizing batches by
// duration rather than a fixed count keeps one-time costs out of the
// figure.
func timeOp(op func(k int)) float64 {
	k := 0
	for ; k < 1000; k++ {
		op(k)
	}
	n := 1000
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			op(k)
			k++
		}
		if time.Since(t) >= 5*time.Millisecond {
			break
		}
		n *= 2
	}
	var per []float64
	for b := 0; b < 5; b++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			op(k)
			k++
		}
		per = append(per, float64(time.Since(t))/float64(n))
	}
	sort.Float64s(per)
	return per[2]
}

// unitProbes times single public calls of the engine, machine and core
// layers on a machine of the given shape.
func unitProbes(s shape, m metrics) error {
	e := sim.NewEngine()
	noop := func() {}
	m.set("sim.schedule_step_ns", timeOp(func(int) { e.Schedule(1, noop); e.Step() }), "ns")

	withMachine := func(name string, setup func(mc *machine.Machine) func(k int) error) error {
		mc, err := machine.New(s.machineConfig())
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		defer mc.Release()
		op := setup(mc)
		var opErr error
		ns := timeOp(func(k int) {
			if err := op(k); err != nil && opErr == nil {
				opErr = err
			}
		})
		if opErr != nil {
			return fmt.Errorf("%s: %w", name, opErr)
		}
		m.set(name, ns, "ns")
		return nil
	}
	const big = 1 << 20 // 4 MB of 4-byte elements: larger than any L2
	probes := []struct {
		name  string
		setup func(mc *machine.Machine) func(k int) error
	}{
		{"machine.read_hit_ns", func(mc *machine.Machine) func(int) error {
			r := mc.Space.Alloc("A", 1024, 4, mem.Local, 0)
			mc.Read(0, r.ElemAddr(0))
			return func(int) error { mc.Read(0, r.ElemAddr(0)); return nil }
		}},
		{"machine.read_miss_remote_ns", func(mc *machine.Machine) func(int) error {
			r := mc.Space.Alloc("A", big, 4, mem.Local, 1)
			return func(k int) error { mc.Read(0, r.ElemAddr((k*16)%big)); return nil }
		}},
		{"core.nonpriv_read_hit_ns", func(mc *machine.Machine) func(int) error {
			c := core.NewController(mc)
			r := mc.Space.Alloc("A", 1024, 4, mem.RoundRobin, 0)
			c.AddNonPriv(r)
			c.Arm()
			return func(int) error { _, err := c.Read(0, r.ElemAddr(0)); return err }
		}},
		{"core.nonpriv_write_miss_ns", func(mc *machine.Machine) func(int) error {
			c := core.NewController(mc)
			r := mc.Space.Alloc("A", big, 4, mem.RoundRobin, 0)
			c.AddNonPriv(r)
			c.Arm()
			return func(k int) error { _, err := c.Write(0, r.ElemAddr((k*16)%big)); return err }
		}},
		{"core.priv_rw_ns", func(mc *machine.Machine) func(int) error {
			c := core.NewController(mc)
			r := mc.Space.Alloc("A", 4096, 4, mem.RoundRobin, 0)
			c.AddPriv(r, true)
			c.Arm()
			c.BeginIteration(0, 1)
			return func(k int) error {
				a := r.ElemAddr(k % 4096)
				if _, err := c.Write(0, a); err != nil {
					return err
				}
				_, err := c.Read(0, a)
				return err
			}
		}},
	}
	for _, p := range probes {
		if err := withMachine(p.name, p.setup); err != nil {
			return err
		}
	}
	return nil
}
