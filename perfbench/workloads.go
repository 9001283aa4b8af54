package main

import (
	"fmt"

	"specrt/internal/core"
	"specrt/internal/directory"
	"specrt/internal/harness"
	"specrt/internal/interconnect"
	"specrt/internal/loops"
	"specrt/internal/run"
	"specrt/internal/sched"
	"specrt/internal/server"
)

// rng is a splitmix64 stream: every generated input is a function of the
// seed alone, stable across Go versions (math/rand's streams are not
// guaranteed to be).
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*1099511628211 ^ uint64(c)
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// cell is one closed-loop job: a simulation whose report digest is
// pinned under label. build makes the workload through the layer the
// cell exercises (harness resolution, the loops constructors, or the
// public run.Workload API) and records a span around that call.
type cell struct {
	label  string
	scheme run.Mode
	build  func(tr *tracer, job, parent int) (*run.Workload, run.Config, error)
}

// resolved builds a named paper loop through harness.ResolveJob, the
// resolver the CLI and specrtd share.
func resolved(name string, cfg run.Config, sc harness.Scale) func(*tracer, int, int) (*run.Workload, run.Config, error) {
	return func(tr *tracer, job, parent int) (*run.Workload, run.Config, error) {
		s := tr.begin("harness.resolve", job, parent)
		w, c, err := harness.ResolveJob(harness.JobSpec{Workload: name, Config: cfg}, sc)
		tr.end(s)
		return w, c, err
	}
}

// built builds a workload with a loops constructor.
func built(ctor func() *run.Workload, cfg run.Config) func(*tracer, int, int) (*run.Workload, run.Config, error) {
	return func(tr *tracer, job, parent int) (*run.Workload, run.Config, error) {
		s := tr.begin("loops.build", job, parent)
		w := ctor()
		tr.end(s)
		return w, cfg, nil
	}
}

func modeLabel(m run.Mode) string {
	switch m {
	case run.Serial:
		return "serial"
	case run.Ideal:
		return "ideal"
	case run.SW:
		return "sw"
	}
	return "hw"
}

// paperCells is the union of the Figure 11/12/14 cell grids plus the
// Figure 13 forced-failure cells at scale sc, in presentation order:
// every loop's serial baseline and its Ideal/SW/HW runs at the figure
// processor counts (Ocean only at 8, as in the paper), then each
// forced-failure loop under Serial, SW and HW.
func paperCells(sc harness.Scale) []cell {
	var cells []cell
	add := func(name string, mode run.Mode, procs int) {
		cfg := run.Config{Procs: procs, Mode: mode, Contention: true}
		cells = append(cells, cell{
			label:  fmt.Sprintf("%s/%s/%s/%d", sc.Name, name, modeLabel(mode), procs),
			scheme: mode,
			build:  resolved(name, cfg, sc),
		})
	}
	for _, name := range harness.LoopNames {
		add(name, run.Serial, 1)
		procs := []int{4, 8, 16}
		if name == "Ocean" {
			procs = []int{loops.Procs(name)}
		}
		for _, p := range procs {
			for _, m := range []run.Mode{run.Ideal, run.SW, run.HW} {
				add(name, m, p)
			}
		}
	}
	fails := []struct {
		name string
		ctor func() *run.Workload
	}{
		{"Ocean-fail", loops.OceanForcedFail},
		{"P3m-fail", func() *run.Workload { return loops.P3mForcedFail(sc.P3mIters) }},
		{"Adm-fail", loops.AdmForcedFail},
		{"Track-fail", loops.TrackForcedFail},
	}
	for _, f := range fails {
		procs := 16
		if f.name == "Ocean-fail" {
			procs = 8
		}
		for _, m := range []run.Mode{run.Serial, run.SW, run.HW} {
			p := procs
			if m == run.Serial {
				p = 1
			}
			cells = append(cells, cell{
				label:  fmt.Sprintf("%s/%s/%s/%d", sc.Name, f.name, modeLabel(m), p),
				scheme: m,
				build:  built(f.ctor, run.Config{Procs: p, Mode: m, Contention: true}),
			})
		}
	}
	return cells
}

// genShape is one draw of the wide-scale generated loop: every iteration
// owns its element of A (so speculation passes at any width) and reads a
// shared hot region of HotLines cache lines spaced StrideLines apart;
// every WriteEvery-th iteration also writes its hot line, invalidating
// every sharer machine-wide.
type genShape struct {
	HotLines, StrideLines, WriteEvery int
}

// The shape universe of the generated loop. The ranges are narrow on
// purpose: the shape changes which lines and sharer sets the directory
// walks, not the order of magnitude of work per cell.
var (
	genHotLines   = []int{48, 64, 80}
	genStride     = []int{1, 2, 3}
	genWriteEvery = []int{47, 61, 79}
)

func (g genShape) String() string {
	return fmt.Sprintf("gen-h%d-s%d-w%d", g.HotLines, g.StrideLines, g.WriteEvery)
}

// genShapes lists every shape the seed can draw (the pinned universe).
func genShapes() []genShape {
	var out []genShape
	for _, h := range genHotLines {
		for _, s := range genStride {
			for _, w := range genWriteEvery {
				out = append(out, genShape{h, s, w})
			}
		}
	}
	return out
}

// wideShape is the generated loop's shape in pass p of a seed's run.
// Passes walk the whole shape universe in a seeded order, reshuffled for
// every cycle through it, so a run's mix of shapes — and with it the
// simulated work per pass — hardly depends on the seed.
func wideShape(seed uint64, p int) genShape {
	shapes := genShapes()
	order := newRNG(seed, fmt.Sprintf("wide-shapes-%d", p/len(shapes))).perm(len(shapes))
	return shapes[order[p%len(shapes)]]
}

// genIterPerProc sizes the generated loop. The harness's wide-scale loop
// runs 4 iterations per processor; 64 makes each cell mostly simulation
// rather than session set-up, and keeps a 30 s run near 350 jobs, well
// inside the band of sample counts whose tail is reported at p90.
const genIterPerProc = 64

// genWorkload builds the generated loop for a machine width through the
// public run.Workload/Ctx API, in the shape of the harness's wide-scale
// generated loop (one execution).
func genWorkload(g genShape, procs int) *run.Workload {
	iters := genIterPerProc * procs
	const elemsPerLine = 4 // 16-byte elements, 64-byte lines
	hotElems := g.HotLines * g.StrideLines * elemsPerLine
	return &run.Workload{
		Name:       fmt.Sprintf("%s-%d", g, procs),
		Executions: 1,
		Iterations: func(int) int { return iters },
		Arrays: []run.ArraySpec{
			{Name: "A", Elems: iters, ElemSize: 16, Test: core.NonPriv},
			{Name: "HOT", Elems: hotElems, ElemSize: 16, Test: core.Plain},
		},
		Body: func(exec, iter int, c *run.Ctx) {
			hot := (iter % g.HotLines) * g.StrideLines * elemsPerLine
			c.Load(1, hot)
			if iter%g.WriteEvery == 0 {
				c.Store(1, hot)
			}
			c.Load(0, iter)
			c.Compute(25)
			c.Store(0, iter)
		},
		HWSched: sched.Config{Kind: sched.Dynamic, Chunk: 4},
	}
}

// wideProcs and wideDirs span the wide-scale machine shapes: 2D mesh,
// 8 KB L1 / 64 KB L2 caches, full-map and coarse directories.
var (
	wideProcs = []int{256, 1024}
	wideDirs  = []directory.Mode{directory.FullMap, directory.Coarse}
)

func wideConfig(procs int, dir directory.Mode) run.Config {
	return run.Config{
		Procs: procs, Mode: run.HW, Contention: true,
		Topology: interconnect.Mesh, DirMode: dir,
		L1Bytes: 8 << 10, L2Bytes: 64 << 10, MaxExecutions: 1,
	}
}

// wideCells is one wide-scale pass: one Ocean execution and the generated
// loop of shape g on every machine shape.
func wideCells(g genShape) []cell {
	var cells []cell
	for _, p := range wideProcs {
		for _, d := range wideDirs {
			cfg := wideConfig(p, d)
			cells = append(cells, cell{
				label:  fmt.Sprintf("wide/Ocean/%d/%v", p, d),
				scheme: run.HW,
				build:  resolved("Ocean", cfg, harness.Quick),
			})
			procs := p
			cells = append(cells, cell{
				label:  fmt.Sprintf("wide/%s/%d/%v", g, p, d),
				scheme: run.HW,
				build: func(tr *tracer, job, parent int) (*run.Workload, run.Config, error) {
					s := tr.begin("gen.build", job, parent)
					w := genWorkload(g, procs)
					tr.end(s)
					return w, cfg, nil
				},
			})
		}
	}
	return cells
}

// ---------------------------------------------------------------------
// Service traffic.

// svcSpec is one service job request with its pinned-digest label.
type svcSpec struct {
	label string
	req   server.JobRequest
}

func svcLabel(r server.JobRequest) string {
	l := fmt.Sprintf("svc/%s/%s/%d/%s/%s", r.Workload, r.Mode, r.Procs, r.Topology, r.Placement)
	if r.Policy != "" {
		l += "/" + r.Policy + "-" + r.Director
	}
	if r.MaxExecutions > 0 {
		l += fmt.Sprintf("/maxexec%d", r.MaxExecutions)
	}
	return l
}

func newSvcSpec(r server.JobRequest) svcSpec { return svcSpec{label: svcLabel(r), req: r} }

var (
	svcWorkloads  = []string{"Ocean", "P3m", "Adm", "Track"}
	svcTopologies = []string{"ideal", "bus", "crossbar", "mesh"}
	svcPlacements = []string{"round-robin", "blocked", "local"}
)

// svcStrata groups the unique-spec universe into strata of similar
// cost: workload x scheme x processor count (serial runs on one
// processor; adaptive runs are their own scheme). Each stratum's members
// differ only in topology, placement and, for adaptive runs, director,
// and every stratum holds at least twelve, so twelve full rounds of
// stratified draws never repeat a spec.
func svcStrata() [][]svcSpec {
	var strata [][]svcSpec
	grid := func(r server.JobRequest, directors []string) []svcSpec {
		var s []svcSpec
		for _, d := range directors {
			for _, t := range svcTopologies {
				for _, pl := range svcPlacements {
					q := r
					q.Topology, q.Placement, q.Director = t, pl, d
					s = append(s, newSvcSpec(q))
				}
			}
		}
		return s
	}
	for _, wl := range svcWorkloads {
		strata = append(strata, grid(server.JobRequest{Workload: wl, Mode: "serial", Procs: 1}, []string{""}))
		for _, p := range []int{4, 8, 16} {
			for _, mode := range []string{"ideal", "sw", "hw"} {
				strata = append(strata, grid(server.JobRequest{Workload: wl, Mode: mode, Procs: p}, []string{""}))
			}
			strata = append(strata, grid(server.JobRequest{Workload: wl, Mode: "hw", Procs: p, Policy: "adaptive"},
				[]string{"threshold", "cost"}))
		}
	}
	return strata
}

// svcWarm is the set-up set: one single-execution job per workload and
// scheme. Its specs are disjoint from the unique universe (maxexec=1 is
// part of the cache key), it fills the server's cache so duplicates
// have something to hit from the first timed job, and it warms the
// simulator's free lists at the service's machine shapes.
func svcWarm() []svcSpec {
	var out []svcSpec
	for _, wl := range svcWorkloads {
		for _, mode := range []string{"serial", "ideal", "sw", "hw"} {
			procs := 8
			if mode == "serial" {
				procs = 1
			}
			out = append(out, newSvcSpec(server.JobRequest{
				Workload: wl, Mode: mode, Procs: procs, Topology: "ideal",
				Placement: "round-robin", MaxExecutions: 1}))
		}
	}
	return out
}

// svcJob is one scheduled service request.
type svcJob struct {
	spec   svcSpec
	unique bool
	due    float64 // seconds after the timed phase starts
}

// svcUniqueEvery and svcDupLag shape the open-loop mix: one job in every
// svcUniqueEvery is a spec not seen before; the rest duplicate a spec
// whose first submission was due at least svcDupLag seconds earlier (or
// one from the set-up set), so nearly all of them are cache hits.
const (
	svcUniqueEvery = 4
	svcDupLag      = 1.0
)

// svcSchedule generates the timed phase's requests: n jobs at a fixed
// arrival rate. Unique specs come in rounds; round r takes member
// (s + 5r) mod len of stratum s, so every run's unique jobs are the same
// set of workload x scheme x processor-count cells with rotating
// topologies and placements (5 is coprime to every stratum size, so no
// member repeats within twelve rounds). The seed orders each round, places
// the unique job within each block, and picks the duplicates; it does not
// change which specs are simulated, so the simulated work per run does
// not depend on the seed.
func svcSchedule(seed uint64, n int, rate float64) []svcJob {
	r := newRNG(seed, "service")
	// One job in each block of svcUniqueEvery is unique; a last partial
	// block has one only if its slot falls inside it.
	var slots []int
	need := 0
	for b := 0; b*svcUniqueEvery < n; b++ {
		slots = append(slots, r.intn(svcUniqueEvery))
		if b*svcUniqueEvery+slots[b] < n {
			need++
		}
	}
	strata := svcStrata()
	var uniques []svcSpec
	for round := 0; len(uniques) < need; round++ {
		// A partial last round takes the first strata in fixed order,
		// so the set of unique specs never depends on the seed.
		k := min(len(strata), need-len(uniques))
		for _, i := range r.perm(k) {
			st := strata[i]
			uniques = append(uniques, st[(i+5*round)%len(st)])
		}
	}
	warm := svcWarm()
	jobs := make([]svcJob, 0, n)
	var seen []svcJob // unique jobs so far, in due order
	for i := 0; i < n; i++ {
		due := float64(i) / rate
		if i%svcUniqueEvery == slots[i/svcUniqueEvery] {
			j := svcJob{spec: uniques[len(seen)], unique: true, due: due}
			jobs = append(jobs, j)
			seen = append(seen, j)
			continue
		}
		// Duplicate a set-up spec or a unique one due svcDupLag earlier.
		ready := 0
		for ready < len(seen) && seen[ready].due <= due-svcDupLag {
			ready++
		}
		pick := r.intn(len(warm) + ready)
		spec := svcSpec{}
		if pick < len(warm) {
			spec = warm[pick]
		} else {
			spec = seen[pick-len(warm)].spec
		}
		jobs = append(jobs, svcJob{spec: spec, due: due})
	}
	return jobs
}
