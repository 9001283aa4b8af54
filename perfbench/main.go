// Command perfbench is the repository benchmark: it measures how fast,
// and how correctly, the simulator turns loops into reports, on three
// workloads that load different layers (see RATIONALE.md).
//
//	perfbench --workload paper-figures|wide-scale|service --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// an untraced and a traced phase of equal work and prints the per-layer
// metrics, writing the spans to --out. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench -pin regenerates digests.txt.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"specrt/internal/harness"
	"specrt/internal/loops"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
	start    time.Time
	pins     pinTable
}

// setups is how many times each run sets its workload up; setup_s is the
// median.
const setups = 3

func main() {
	start := time.Now()
	o := options{start: start}
	flag.StringVar(&o.workload, "workload", "", "paper-figures | wide-scale | service")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = per-layer traced run")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for the span trace")
	pin := flag.Bool("pin", false, "write digests.txt for the current simulator to stdout")
	flag.Parse()
	o.trace = *traceFlag == 1
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *pin {
		if err := writePins(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	pins, err := parsePins(pinnedText)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.pins = pins
	measureRef()
	fmt.Println(hostContext())

	var res result
	switch o.workload {
	case "paper-figures":
		res, err = paperFigures(o)
	case "wide-scale":
		res, err = wideScale(o)
	case "service":
		res, err = service(o)
	default:
		err = fmt.Errorf("unknown --workload %q (paper-figures|wide-scale|service)", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printHuman(os.Stdout, res.Metrics)
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// hostContext names the host and build every result was measured on.
func hostContext() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timeSetups runs set-up setups times and returns the median duration
// (the first measured from process start) and the last set-up's state.
func timeSetups[T any](o options, setup func() (T, error), teardown func(T)) (time.Duration, T, error) {
	var last T
	var ds []float64
	for k := 0; k < setups; k++ {
		t := time.Now()
		if k == 0 {
			t = o.start
		}
		v, err := setup()
		if err != nil {
			return 0, last, err
		}
		ds = append(ds, float64(time.Since(t)))
		if k > 0 && teardown != nil {
			teardown(last)
		}
		last = v
	}
	return time.Duration(median(ds)), last, nil
}

// permuted returns cells in the seeded order of pass p.
func permuted(cells []cell, seed uint64, stream string, p int) []cell {
	out := make([]cell, len(cells))
	for i, j := range newRNG(seed, fmt.Sprintf("%s-%d", stream, p)).perm(len(cells)) {
		out[i] = cells[j]
	}
	return out
}

// The paper's headline means (Figures 11 and 13, 16 processors) and the
// values this simulator reproduces at default scale (EXPERIMENTS.md).
var (
	paperHeadline  = [4]float64{6.7, 2.9, 1.22, 1.58}   // Fig 11 HW, SW; Fig 13 HW, SW
	experimentsFig = [4]float64{6.39, 3.40, 1.14, 1.96} // same order
)

// figureMeans computes the four headline means from one pass's cycles.
func figureMeans(sc harness.Scale, cyc map[string]int64) ([4]float64, error) {
	var means [4]float64
	get := func(name, mode string, procs int) (float64, error) {
		l := fmt.Sprintf("%s/%s/%s/%d", sc.Name, name, mode, procs)
		c, ok := cyc[l]
		if !ok || c == 0 {
			return 0, fmt.Errorf("figure means: no cycles for %s", l)
		}
		return float64(c), nil
	}
	for _, name := range harness.LoopNames {
		p := loops.Procs(name)
		serial, err := get(name, "serial", 1)
		if err != nil {
			return means, err
		}
		for i, mode := range []string{"hw", "sw"} {
			c, err := get(name, mode, p)
			if err != nil {
				return means, err
			}
			means[i] += serial / c / 4
		}
		fserial, err := get(name+"-fail", "serial", 1)
		if err != nil {
			return means, err
		}
		for i, mode := range []string{"hw", "sw"} {
			c, err := get(name+"-fail", mode, p)
			if err != nil {
				return means, err
			}
			means[2+i] += c / fserial / 4
		}
	}
	return means, nil
}

// paperErrPct is the mean absolute relative error of the four headline
// means against the paper, in percent. The means are taken to two
// decimals, as the paper and EXPERIMENTS.md report them.
func paperErrPct(means [4]float64) float64 {
	var e float64
	for i, m := range round2(means) {
		e += math.Abs(m-paperHeadline[i]) / paperHeadline[i]
	}
	return 100 * e / 4
}

func round2(xs [4]float64) [4]float64 {
	for i := range xs {
		xs[i] = math.Round(xs[i]*100) / 100
	}
	return xs
}

// quickFigures runs the quick-scale figure cells once (untimed) and
// returns their model error; workloads that do not run the default-scale
// figures report the model's error at the service's scale.
func quickFigures(o options) (float64, closedStats, error) {
	cells := paperCells(harness.Quick)
	st := runClosed(func(int) []cell { return cells }, 0, 1, nil, o.pins)
	if st.failed > 0 {
		return 0, st, nil
	}
	means, err := figureMeans(harness.Quick, st.firstCycles)
	return paperErrPct(means), st, err
}

// ---------------------------------------------------------------------

func paperFigures(o options) (result, error) {
	setup, cells, err := timeSetups(o, func() ([]cell, error) {
		cells := paperCells(harness.Default)
		return cells, warmUp(cells)
	}, nil)
	if err != nil {
		return result{}, err
	}
	pass := func(p int) []cell { return permuted(cells, o.seed, "paper", p) }
	if o.trace {
		return tracedClosed(o, pass, shapeP16, harness.Default)
	}
	st := runClosed(pass, o.seconds, 0, nil, o.pins)
	// The figure means must reproduce EXPERIMENTS.md; a miss fails the run
	// like a digest mismatch does.
	means, err := figureMeans(harness.Default, st.firstCycles)
	if err == nil && round2(means) != experimentsFig {
		err = fmt.Errorf("figure means %.2f, EXPERIMENTS.md has %.2f", round2(means), experimentsFig)
	}
	if err != nil {
		st.attempted++
		st.fail(err)
	}
	m := metrics{}
	m.set("setup_s", setup.Seconds()/st.ref.slowdown(), "s")
	sum := endToEnd(m, &st.phase, false, st.windows, &st.ref)
	m.set("paper_err_pct", paperErrPct(means), "%")
	fmt.Printf("paper-figures: %d passes of %d cells; figure means HW %.4f SW %.4f | fail HW %.4f SW %.4f\n",
		st.passes, len(cells), means[0], means[1], means[2], means[3])
	report(sum, st.errs)
	return result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed, Metrics: m}, nil
}

// report prints the tail rule's outcome and the first failures.
func report(sum latencySummary, errs []string) {
	note := ""
	if !sum.TailComplete {
		note = " (fewer than 10 samples beyond any rung: maximum)"
	}
	fmt.Printf("job_ms_tail is p%g of n=%d jobs%s; job_ms_p50 of n=%d\n", sum.TailPctl, sum.N, note, sum.N)
	for _, e := range errs {
		fmt.Println("FAIL:", e)
	}
}

func wideScale(o options) (result, error) {
	pass := func(p int) []cell {
		g := wideShape(o.seed, p)
		return permuted(wideCells(g), o.seed, "wide", p)
	}
	setup, _, err := timeSetups(o, func() (struct{}, error) {
		return struct{}{}, warmUp(pass(0))
	}, nil)
	if err != nil {
		return result{}, err
	}
	if o.trace {
		return tracedClosed(o, pass, shapeP1024, harness.Quick)
	}
	st := runClosed(pass, o.seconds, 0, nil, o.pins)
	m := metrics{}
	m.set("setup_s", setup.Seconds()/st.ref.slowdown(), "s")
	sum := endToEnd(m, &st.phase, false, st.windows, &st.ref)
	errPct, qst, err := quickFigures(o)
	if err != nil {
		return result{}, err
	}
	m.set("paper_err_pct", errPct, "%")
	fmt.Printf("wide-scale: %d passes of 8 cells\n", st.passes)
	report(sum, append(st.errs, qst.errs...))
	failed := st.failed + qst.failed
	return result{Correct: failed == 0, Attempted: st.attempted + qst.attempted, Failed: failed, Metrics: m}, nil
}

func service(o options) (result, error) {
	conns := runtime.NumCPU()
	n := int(svcRate * o.seconds)
	if o.trace {
		n /= 2
	}
	jobs := svcSchedule(o.seed, n, svcRate)
	startWarm := func() (*svcServer, error) {
		s, err := startServer(conns)
		if err != nil {
			return nil, err
		}
		if err := warmServer(s); err != nil {
			return nil, errors.Join(err, s.stop())
		}
		return s, nil
	}
	stop := func(s *svcServer) {
		if err := s.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping server:", err)
		}
	}
	setup, srv, err := timeSetups(o, startWarm, stop)
	if err != nil {
		return result{}, err
	}
	st := runOpen(srv, jobs, conns, nil, o.pins, 0)
	if err := srv.stop(); err != nil {
		return result{}, err
	}
	if o.trace {
		srv, err := startWarm()
		if err != nil {
			return result{}, err
		}
		tr := newTracer()
		tst := runOpen(srv, jobs, conns, tr, o.pins, 0)
		if err := srv.stop(); err != nil {
			return result{}, err
		}
		m := metrics{}
		tst.uniques.put(m)
		m.set("loadgen.late_ms_max", float64(tst.lateMax)/1e6, "ms")
		m.set("trace.overhead_pct", overheadPct(&st.phase, &tst.phase), "%")
		failed, err := layerMetrics(o, tr, m, tst, tst.attempted, shapeP16, harness.Quick)
		if err != nil {
			return result{}, err
		}
		failed += st.failed + tst.failed
		report(summarize(tst.latMS), append(st.errs, tst.errs...))
		return result{Correct: failed == 0, Attempted: st.attempted + tst.attempted, Failed: failed, Metrics: m}, nil
	}
	// The server's simulations cannot be timed from outside it, so the
	// simulator-throughput metrics come from replaying the run's unique
	// jobs in-process after the timed phase, one at a time; the replay
	// also checks every server result byte for byte.
	var rref refClock
	outs, rfailed, err := replayUniques(o, nil, st, -1, &rref)
	if err != nil {
		return result{}, err
	}
	m := metrics{}
	m.set("setup_s", setup.Seconds()/st.ref.slowdown(), "s")
	sum := endToEnd(m, &st.phase, true, []window{replayWindow(outs)}, &rref)
	errPct, qst, err := quickFigures(o)
	if err != nil {
		return result{}, err
	}
	m.set("paper_err_pct", errPct, "%")
	fmt.Printf("service: %d jobs at %.0f/s (%d unique, %d cache hits, %d shed); limit %.0f ms; generator late by up to %.2f ms\n",
		st.attempted, svcRate, len(st.uniqueJobs), st.cachedHits, st.shed, svcLimitMS, float64(st.lateMax)/1e6)
	report(sum, append(st.errs, qst.errs...))
	failed := st.failed + rfailed + qst.failed
	return result{Correct: failed == 0, Attempted: st.attempted + len(outs) + qst.attempted, Failed: failed, Metrics: m}, nil
}

// overheadPct is how much slower the traced phase's mean job was than
// the untraced phase's, in percent, each scaled by its host speed.
func overheadPct(untraced, traced *phase) float64 {
	u := mean(untraced.latMS) / untraced.ref.slowdown()
	t := mean(traced.latMS) / traced.ref.slowdown()
	return 100 * (t - u) / u
}

// tracedClosed is the per-layer run of a closed-loop workload: an
// untraced phase for half the time, a traced phase of the same passes,
// then the probes.
func tracedClosed(o options, pass func(int) []cell, sh shape, sc harness.Scale) (result, error) {
	st := runClosed(pass, o.seconds/2, 0, nil, o.pins)
	tr := newTracer()
	tst := runClosed(pass, 0, st.passes, tr, o.pins)
	m := metrics{}
	tst.first.put(m)
	m.set("loadgen.late_ms_max", float64(tst.lateMax)/1e6, "ms")
	m.set("trace.overhead_pct", overheadPct(&st.phase, &tst.phase), "%")

	// The server layer is not on a closed-loop job's path: probe it with
	// a few single-execution jobs and their cached duplicates.
	srv, err := startServer(runtime.NumCPU())
	if err != nil {
		return result{}, err
	}
	var probe []svcJob
	for i, sp := range svcWarm()[:4] {
		probe = append(probe, svcJob{spec: sp, unique: true, due: float64(i) * 0.05})
	}
	for i, sp := range svcWarm()[:4] {
		probe = append(probe, svcJob{spec: sp, due: 0.5 + float64(i)*0.05})
	}
	sst := runOpen(srv, probe, runtime.NumCPU(), tr, o.pins, tst.attempted)
	if err := srv.stop(); err != nil {
		return result{}, err
	}
	failed, err := layerMetrics(o, tr, m, sst, -1, sh, sc)
	if err != nil {
		return result{}, err
	}
	failed += st.failed + tst.failed + sst.failed
	report(summarize(tst.latMS), append(append(st.errs, tst.errs...), sst.errs...))
	return result{Correct: failed == 0, Attempted: st.attempted + tst.attempted + sst.attempted,
		Failed: failed, Metrics: m}, nil
}

// layerMetrics replays the server phase's unique jobs locally (timing
// the simulation the server ran and checking the bytes match), runs the
// probes at the workload's machine shape, folds the spans into the
// per-layer metrics, and writes the trace. replayFirst is the first job id
// the replays record under when they stand for the workload's own jobs
// (service), or -1 when they are a probe.
func layerMetrics(o options, tr *tracer, m metrics, sst svcStats, replayFirst int, sh shape, sc harness.Scale) (int, error) {
	outs, failed, err := replayUniques(o, tr, sst, replayFirst, nil)
	if err != nil {
		return 0, err
	}
	var simMS, waitMS []float64
	for i, out := range outs {
		if out.err != nil {
			continue
		}
		simMS = append(simMS, float64(out.execDur)/1e6)
		waitMS = append(waitMS, max(0, float64(sst.uniqueJobs[i].residence-out.execDur)/1e6))
	}
	m.set("server.simulate_ms", mean(simMS), "ms")
	m.set("server.queue_wait_ms", mean(waitMS), "ms")
	m.set("server.cache_hit_ratio", ratio(float64(sst.cachedHits), float64(sst.attempted)), "ratio")
	m.set("server.dedup_ratio", ratio(float64(sst.simulated), float64(len(sst.uniqueJobs))), "ratio")
	m.set("server.shed", float64(sst.shed), "count")

	if err := buildProbes(sc, tr); err != nil {
		return 0, err
	}
	if err := schemeProbes(sh, tr); err != nil {
		return 0, err
	}
	for _, s := range []shape{shapeP16, shapeP1024} {
		d, err := setupProbe(s)
		if err != nil {
			return 0, err
		}
		m.set("run.setup_us."+s.name, float64(d)/1e3, "us")
	}
	if err := unitProbes(sh, m); err != nil {
		return 0, err
	}
	spanMetrics(tr.spans, m)
	return failed, writeTrace(o, tr)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// replayUniques re-runs a server phase's unique jobs in-process, one at a
// time, and checks each local report is byte-identical to the bytes the
// server returned (as well as to its pinned digest). Spans take job ids
// from first on, or -1 (a probe) when first is negative. A non-nil ref
// samples the host's speed between jobs. It returns one output per
// unique job and how many failed.
func replayUniques(o options, tr *tracer, sst svcStats, first int, ref *refClock) ([]jobOut, int, error) {
	outs := make([]jobOut, len(sst.uniqueJobs))
	failed := 0
	for i, u := range sst.uniqueJobs {
		spec, err := u.spec.req.Spec()
		if err != nil {
			return nil, 0, err
		}
		job := -1
		if first >= 0 {
			job = first + i
		}
		c := cell{label: u.spec.label, scheme: spec.Config.Mode,
			build: resolved(spec.Workload, spec.Config, harness.Quick)}
		out := runCell(c, job, tr, o.pins, false)
		if out.err == nil && string(out.bytes) != string(u.body) {
			out.err = fmt.Errorf("%s: server bytes differ from a local run", u.spec.label)
		}
		if out.err != nil {
			failed++
			fmt.Println("FAIL:", out.err)
		}
		outs[i] = out
		if ref != nil {
			ref.maybeSample()
		}
	}
	return outs, failed, nil
}

// replayWindow sums the replayed jobs' simulation into one window. The
// unique set is the same on every seed, so the whole set, not a median
// over slices of it, is the steady measure.
func replayWindow(outs []jobOut) window {
	var w window
	for _, out := range outs {
		if out.err != nil {
			continue
		}
		w.simSec += out.execDur.Seconds()
		w.refs += float64(refsOf(&out.rep))
		w.cycles += float64(out.rep.Cycles)
	}
	return w
}

// spanMetrics folds the spans into per-layer host-time metrics.
func spanMetrics(spans []span, m metrics) {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	var reportBytes []float64
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start))
		if s.Name == "stats.report" {
			reportBytes = append(reportBytes, float64(s.Bytes))
		}
	}
	m.set("harness.resolve_us", mean(durs["harness.resolve"])/1e3, "us")
	m.set("loops.build_ms", mean(durs["loops.build"])/1e6, "ms")
	m.set("run.validate_us", mean(durs["run.validate"])/1e3, "us")
	m.set("stats.report_us", mean(durs["stats.report"])/1e3, "us")
	m.set("stats.report_bytes", mean(reportBytes), "bytes")
	m.set("server.submit_us", mean(durs["server.submit"])/1e3, "us")
	m.set("server.result_us", mean(durs["server.result"])/1e3, "us")

	// run.Execute self time by scheme. A bucket takes the workload's own
	// jobs when it has any, and the minimal-loop probes otherwise.
	type agg struct {
		n    int
		self time.Duration
		refs uint64
	}
	var job, probe [2]map[string]*agg // [0] by bucket, [1] by scheme
	for k := range job {
		job[k], probe[k] = map[string]*agg{}, map[string]*agg{}
	}
	for i, s := range spans {
		if s.Name != "run.execute" {
			continue
		}
		set := job
		if s.Job < 0 {
			set = probe
		}
		bucket := s.Scheme
		if s.Failed {
			bucket = "failed"
		}
		for k, key := range []string{bucket, s.Scheme} {
			a := set[k][key]
			if a == nil {
				a = &agg{}
				set[k][key] = a
			}
			a.n++
			a.self += self[i]
			a.refs += s.Refs
		}
	}
	pick := func(k int, key string) *agg {
		if a := job[k][key]; a != nil {
			return a
		}
		if a := probe[k][key]; a != nil {
			return a
		}
		return &agg{}
	}
	for _, b := range []string{"serial", "ideal", "sw", "hw", "failed"} {
		a := pick(0, b)
		m.set("run.execute_ms."+b, ratio(float64(a.self)/1e6, float64(a.n)), "ms")
	}
	for _, sch := range []string{"serial", "ideal", "sw", "hw"} {
		a := pick(1, sch)
		m.set("run.ns_per_ref."+sch, ratio(float64(a.self), float64(a.refs)), "ns")
	}
}

// writeTrace writes the spans as JSON lines under the output directory.
func writeTrace(o options, tr *tracer) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("perfbench-trace-%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	return nil
}
