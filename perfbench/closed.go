package main

import (
	"fmt"
	"runtime"
	"time"

	"specrt/internal/run"
	"specrt/internal/stats"
)

// jobOut is what one job produced, as seen from outside the library.
type jobOut struct {
	rep     stats.Report
	bytes   []byte
	execDur time.Duration
	err     error
}

// runCell runs one job — build, validate, execute, encode — with a span
// around each layer call, and checks the encoded report against its
// pinned digest (pins == nil skips the check, as warm-up does).
func runCell(c cell, job int, tr *tracer, pins pinTable, warm bool) (out jobOut) {
	root := tr.begin("job", job, -1)
	defer tr.end(root)
	defer func() {
		if p := recover(); p != nil {
			out.err = fmt.Errorf("%s: panic: %v", c.label, p)
		}
	}()
	w, cfg, err := c.build(tr, job, root)
	if err != nil {
		out.err = fmt.Errorf("%s: %w", c.label, err)
		return out
	}
	if warm {
		cfg.MaxExecutions = 1
	}
	s := tr.begin("run.validate", job, root)
	err = run.Validate(w, cfg)
	tr.end(s)
	if err != nil {
		out.err = fmt.Errorf("%s: %w", c.label, err)
		return out
	}
	s = tr.begin("run.execute", job, root)
	t := time.Now()
	res, err := run.Execute(w, cfg)
	out.execDur = time.Since(t)
	tr.end(s)
	if err != nil {
		out.err = fmt.Errorf("%s: %w", c.label, err)
		return out
	}
	exec := s
	s = tr.begin("stats.report", job, root)
	out.rep = stats.ReportOf(res)
	out.bytes, err = out.rep.Encode()
	tr.end(s)
	tr.annotate(exec, modeLabel(c.scheme), res.Failures+res.Exceptions > 0, refsOf(&out.rep))
	tr.setBytes(s, len(out.bytes))
	if err != nil {
		out.err = fmt.Errorf("%s: %w", c.label, err)
		return out
	}
	if pins != nil {
		out.err = pins.check(c.label, out.bytes)
	}
	return out
}

// phase is what every timed phase records.
type phase struct {
	latMS             []float64
	attempted, failed int
	errs              []string // the first few failures
	windows           []window
	mallocs           uint64   // heap allocations, the reference kernel's excluded
	ref               refClock // the host's speed during the phase
}

func (ph *phase) fail(err error) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, err.Error())
	}
}

// closedStats is one closed-loop phase: whole passes over a workload's
// cells with one job in flight; its windows are the passes.
type closedStats struct {
	phase
	passes int
	// lateMax is the longest gap between one job's completion and the
	// next job's start: in a closed loop the next job is due when the
	// previous one completes, so this is how late the generator ran.
	lateMax time.Duration
	// first holds the exact counts and per-label cycles of pass 0,
	// which is the same set of jobs on every run of a seed.
	first       counts
	firstCycles map[string]int64
}

// minJobs is the fewest jobs a timed closed-loop phase runs, so the tail
// is never reported below p90 on a slow host.
const minJobs = 100

// runClosed runs whole passes until seconds have elapsed and at least
// minJobs jobs have run (or exactly passes when passes > 0). Whole passes
// keep the job mix identical across seeds and runs; the seed only
// changes the order within each pass (and, for wide-scale, the
// generated loop's shape).
func runClosed(pass func(p int) []cell, seconds float64, passes int, tr *tracer, pins pinTable) closedStats {
	st := closedStats{firstCycles: map[string]int64{}}
	// Start every timed phase from a collected heap, whatever set-up left.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	prevEnd := start
	job := 0
	for p := 0; ; p++ {
		if passes > 0 && p == passes {
			break
		}
		if passes == 0 && st.attempted >= minJobs && time.Since(start).Seconds() >= seconds {
			break
		}
		w := window{}
		passStart := time.Now()
		var sampled time.Duration // reference-kernel time, not the pass's
		for _, c := range pass(p) {
			t := time.Now()
			st.lateMax = max(st.lateMax, t.Sub(prevEnd))
			out := runCell(c, job, tr, pins, false)
			end := time.Now()
			job++
			st.attempted++
			st.latMS = append(st.latMS, float64(end.Sub(t))/1e6)
			sampled += st.ref.maybeSample()
			prevEnd = time.Now()
			if out.err != nil {
				st.fail(out.err)
				continue
			}
			w.ok++
			w.good++
			w.simSec += out.execDur.Seconds()
			w.refs += float64(refsOf(&out.rep))
			w.cycles += float64(out.rep.Cycles)
			if p == 0 {
				st.first.add(&out.rep)
				st.firstCycles[c.label] = out.rep.Cycles
			}
		}
		w.wall = (time.Since(passStart) - sampled).Seconds()
		st.windows = append(st.windows, w)
		st.passes++
	}
	runtime.ReadMemStats(&ms1)
	st.mallocs = ms1.Mallocs - ms0.Mallocs - st.ref.allocs()
	return st
}

// warmUp runs every distinct cell once with a single loop execution, so
// the arena, slab and pool free lists reach the sizes the timed passes
// need before timing starts.
func warmUp(cells []cell) error {
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.label] {
			continue
		}
		seen[c.label] = true
		if out := runCell(c, -1, nil, nil, true); out.err != nil {
			return out.err
		}
	}
	return nil
}

// window is one slice of a timed phase: a pass of a closed loop, or a
// few seconds of an open loop's schedule. Throughput metrics are medians
// over windows, so a slow stretch of a shared host moves one window
// rather than the whole run.
type window struct {
	ok   int
	good int // ok and within the workload's latency limit
	wall float64
	// simSec is the host time the window's simulations took; refs and
	// cycles are the simulated references and cycles they produced.
	simSec, refs, cycles float64
}

// medianOver returns the median of f over the windows.
func medianOver(ws []window, f func(w window) float64) float64 {
	xs := make([]float64, 0, len(ws))
	for _, w := range ws {
		xs = append(xs, f(w))
	}
	return median(xs)
}

// endToEnd fills the end-to-end metrics every workload shares from a
// timed phase and the windows (with the host speed they ran at) that the
// simulator-throughput medians come from. Host times are scaled to the
// reference host (see hostref.go). An open loop's job rates are set by
// its schedule, not by the host's speed, so they are not scaled.
func endToEnd(m metrics, ph *phase, open bool, simWs []window, simRef *refClock) latencySummary {
	s, ss := ph.ref.slowdown(), simRef.slowdown()
	rs := s
	if open {
		rs = 1
	}
	sum := summarize(ph.latMS)
	ok := ph.attempted - ph.failed
	m.set("jobs_per_s", rs*medianOver(ph.windows, func(w window) float64 { return float64(w.ok) / w.wall }), "1/s")
	m.set("goodput_per_s", rs*medianOver(ph.windows, func(w window) float64 { return float64(w.good) / w.wall }), "1/s")
	m.set("job_ms_p50", sum.P50/s, "ms")
	m.set("job_ms_tail", sum.Tail/s, "ms")
	m.set("sim_refs_per_s", ss*medianOver(simWs, func(w window) float64 { return ratio(w.refs, w.simSec) }), "1/s")
	m.set("sim_cycles_per_s", ss*medianOver(simWs, func(w window) float64 { return ratio(w.cycles, w.simSec) }), "1/s")
	m.set("allocs_per_job", ratio(float64(ph.mallocs), float64(ph.attempted)), "count")
	m.set("ok_ratio", ratio(float64(ok), float64(ph.attempted)), "ratio")
	// Peak RSS is printed, not reported: it depends on when the collector
	// runs, and its spread across runs (up to 26%) exceeds any bound.
	fmt.Printf("rss_mb %.1f MB peak resident memory\n", maxRSSMB())
	fmt.Printf("host slowdown vs the reference host: %.3f (timed phase), %.3f (simulation windows); raw = scaled x slowdown for rates, / for times\n", s, ss)
	return sum
}
