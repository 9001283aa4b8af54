package run

import (
	"runtime"
	"sync"
	"sync/atomic"

	"specrt/internal/core"
	"specrt/internal/cpu"
	"specrt/internal/interconnect"
	"specrt/internal/lrpd"
	"specrt/internal/machine"
	"specrt/internal/sim"
)

// Parallel loop executions.
//
// The paper flushes every cache between loop executions (§5.2), so each
// execution starts from flushed caches, a reset directory and no
// in-flight messages. The only simulated state that crosses an execution
// boundary is the reservation state of the queueing resources — the
// home directory/memory servers and the interconnect links, whose busy
// periods can outlast the execution that booked them.
//
// A static run with several executions therefore simulates them on
// several goroutines. Each owns a session and starts every execution
// from the canonical state: flushed caches and idle servers. The calling
// goroutine merges the per-execution results in execution order and
// carries the chained run's server reservations across each boundary.
// An execution whose first arrival at some server precedes that
// server's carried busy-until would have queued behind it, so the merge
// re-runs it on the calling goroutine's session, seeded with the carried
// reservations; every other execution folds in as is. Every execution
// first runs from idle servers, whichever worker takes it, so the set of
// re-run executions is a function of the run alone. Cycles, stats,
// verdicts and the first failure fold exactly as one chained session
// would have accumulated them, so results are byte-identical at any
// worker count.

// simulating counts the goroutines simulating in this process: every
// Execute (or ExecuteAdaptive) caller and every helper a run has
// borrowed. A run borrows helpers only while the count is below
// GOMAXPROCS, so concurrent Executes (harness cells, specrtd workers)
// never push the process past one simulating goroutine per core. A
// nested serial re-execution counts its goroutine twice for its short
// duration, which only makes borrowing more conservative.
var simulating atomic.Int64

// reruns counts the executions merges have re-run seeded (tests and
// measurements read it; it never influences results).
var reruns atomic.Int64

// workersOverride, when positive, fixes how many goroutines a
// multi-execution run simulates on, whatever the host has free: 1 pins
// the chained loop, more forces helpers. Tests only.
var workersOverride int

// borrowHelpers reserves helper goroutines for a run of execs
// executions under cfg: one per idle core, at most execs-1. Each
// borrowed helper returns its core with simulating.Add(-1); a count
// forced by workersOverride is not borrowed. A run that may fall back to
// serial execution (§2.2.4 AdaptiveAfter) gets none: executions
// simulated ahead of the merge would be wasted once the fallback starts.
func borrowHelpers(execs int, cfg Config) (n int, borrowed bool) {
	want := execs - 1
	if cfg.AdaptiveAfter > 0 {
		return 0, false
	}
	if workersOverride > 0 {
		return min(workersOverride-1, want), false
	}
	for want > 0 {
		busy := simulating.Load()
		free := int64(runtime.GOMAXPROCS(0)) - busy
		if free <= 0 {
			return 0, false
		}
		take := min(free, int64(want))
		if simulating.CompareAndSwap(busy, busy+take) {
			return int(take), true
		}
	}
	return 0, false
}

// execOut is one execution's contribution to a Result, with its
// server-boundary record. Times are relative to the execution's start
// (first arrivals, failure time) or end (residual reservations).
type execOut struct {
	ready  bool // the result is complete (guarded by execPool.mu)
	lost   bool // the worker panicked; the merge re-runs the execution
	seeded bool // re-run from the carried reservations, not idle servers

	span       sim.Time // engine time on the session
	cycles     sim.Time // span plus any serial re-execution
	bd         cpu.Breakdown
	failures   int
	exceptions int
	detect     sim.Time
	failure    *core.Failure
	invErr     error
	verdicts   []namedVerdict

	ms machine.Stats
	cs core.Stats
	ns interconnect.Stats
	hq machine.HomeStats // its depth high-water mark is superseded by depth
	// depth[h] is home h's deepest queue; first[i] server i's first
	// arrival, -1 if it saw none.
	depth []int
	first []sim.Time
	// resid lists the servers still reserved past the execution's end.
	resid []carry
}

type namedVerdict struct {
	name string
	v    lrpd.Verdict
}

// carry is server srv's reservation: its busy-until time and the
// service ends of its transactions still in the system, oldest first.
type carry struct {
	srv  int
	busy sim.Time
	ends []sim.Time
}

// execWorker runs executions on one session.
type execWorker struct {
	s   *session
	srv []*sim.Server // home servers, then interconnect links
	r   Result        // per-execution scratch
	tmp []sim.Time
}

func newExecWorker(s *session) *execWorker {
	x := &execWorker{s: s, r: Result{Verdicts: make(map[string]lrpd.Verdict)}}
	for i := range s.m.Home {
		x.srv = append(x.srv, &s.m.Home[i])
	}
	links := s.m.Net.Links()
	for i := range links {
		x.srv = append(x.srv, &links[i])
	}
	return x
}

// run simulates execution exec into out. Seeded, it starts from the
// chained run's reservations carried as of chained time at, which makes
// it exact; otherwise from idle servers (carried must then be nil).
func (x *execWorker) run(exec int, out *execOut, seeded bool, carried []carry, at sim.Time) {
	s, m := x.s, x.s.m
	start := m.Eng.Now()
	for i := range m.Home {
		m.Home[i].Reset()
	}
	m.Net.Reset()
	for _, c := range carried {
		x.tmp = x.tmp[:0]
		for _, e := range c.ends {
			x.tmp = append(x.tmp, e-at+start)
		}
		x.srv[c.srv].Seed(c.busy-at+start, x.tmp)
	}
	m.Stats = machine.Stats{}
	if s.ctl != nil {
		s.ctl.Stats = core.Stats{}
	}
	r := &x.r
	clear(r.Verdicts)
	*r = Result{Verdicts: r.Verdicts}

	s.runOne(exec, r)

	end := m.Eng.Now()
	out.seeded = seeded
	out.span = end - start
	out.cycles, out.bd = r.Cycles, r.Breakdown
	out.failures, out.exceptions, out.detect = r.Failures, r.Exceptions, r.FailDetectCycles
	out.failure = nil
	if f := r.FirstFailure; f != nil {
		cp := *f
		cp.At -= start
		out.failure = &cp
	}
	out.invErr = r.InvariantErr
	out.verdicts = out.verdicts[:0]
	for _, a := range s.w.Arrays {
		if v, ok := r.Verdicts[a.Name]; ok {
			out.verdicts = append(out.verdicts, namedVerdict{a.Name, v})
		}
	}
	out.ms, out.ns = m.Stats, m.Net.Stats()
	if s.ctl != nil {
		out.cs = s.ctl.Stats
	}
	out.hq = m.HomeStats()
	for h := range m.Home {
		out.depth[h] = m.Home[h].MaxDepth
	}
	out.resid = out.resid[:0]
	for i, sv := range x.srv {
		out.first[i] = -1
		if f, ok := sv.FirstArrival(); ok {
			out.first[i] = f - start
		}
		busy, ends := sv.Residual(end, nil)
		if busy <= end {
			continue
		}
		for j := range ends {
			ends[j] -= end
		}
		out.resid = append(out.resid, carry{srv: i, busy: busy - end, ends: ends})
	}
}

// execPool hands out a run's executions to its workers in order.
type execPool struct {
	execs int
	mu    sync.Mutex
	cond  sync.Cond
	next  int // next execution to claim
	outs  []execOut
	wg    sync.WaitGroup
}

// claim takes the next unclaimed execution (execs when none is left).
func (p *execPool) claim() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := p.next
	if k < p.execs {
		p.next++
	}
	return k
}

// stop lets no further execution be claimed.
func (p *execPool) stop() {
	p.mu.Lock()
	p.next = p.execs
	p.mu.Unlock()
}

// finish publishes a worker's result for execution k.
func (p *execPool) finish(k int, lost bool) {
	p.mu.Lock()
	p.outs[k].ready, p.outs[k].lost = true, lost
	p.cond.Broadcast()
	p.mu.Unlock()
}

// help is a helper goroutine: it builds its own session and runs
// executions from idle servers until none is left to claim.
func (p *execPool) help(w *Workload, cfg Config, borrowed bool) {
	defer p.wg.Done()
	if borrowed {
		defer simulating.Add(-1)
	}
	k := -1
	defer func() {
		// A panicking execution is re-run by the merge, on the caller's
		// goroutine, where the panic belongs; this session may be left
		// mid-simulation, so it is dropped, not released.
		if recover() != nil && k >= 0 && k < p.execs {
			p.finish(k, true)
		}
	}()
	x := newExecWorker(newSession(w, cfg))
	for {
		if k = p.claim(); k >= p.execs {
			break
		}
		x.run(k, &p.outs[k], false, nil, 0)
		p.finish(k, false)
	}
	x.s.m.Release()
	x.s.release()
}

// await returns once execution k's result is ready. While it is not, the
// caller's worker runs unclaimed executions itself, from idle servers
// like every other worker: the merge then treats all executions alike.
func (p *execPool) await(k int, x *execWorker) {
	for {
		p.mu.Lock()
		if p.outs[k].ready {
			p.mu.Unlock()
			return
		}
		j := p.next
		if j >= p.execs {
			for !p.outs[k].ready {
				p.cond.Wait()
			}
			p.mu.Unlock()
			return
		}
		p.next++
		p.mu.Unlock()
		x.run(j, &p.outs[j], false, nil, 0)
		p.finish(j, false)
	}
}

// interacts reports whether out, run from idle servers, met a carried
// reservation: a first arrival before the server's carried busy-until
// would have queued behind it.
func interacts(out *execOut, carried []carry, at sim.Time) bool {
	for _, c := range carried {
		if f := out.first[c.srv]; f >= 0 && at+f < c.busy {
			return true
		}
	}
	return false
}

// executeParallel runs the static executions of s's workload on the
// caller's goroutine plus helpers more, merging in execution order into
// res. It accumulates exactly what executeChained does (AdaptiveAfter
// runs, whose fallback could cut executions short, never get here).
func executeParallel(s *session, res *Result, execs, helpers int, borrowed bool, progress ProgressFunc) {
	x := newExecWorker(s)
	nsrv, nhome := len(x.srv), len(s.m.Home)
	p := &execPool{execs: execs, outs: make([]execOut, execs)}
	p.cond.L = &p.mu
	first := make([]sim.Time, execs*nsrv)
	depths := make([]int, execs*nhome)
	for k := range p.outs {
		p.outs[k].first = first[k*nsrv : (k+1)*nsrv : (k+1)*nsrv]
		p.outs[k].depth = depths[k*nhome : (k+1)*nhome : (k+1)*nhome]
	}
	// Stop handing out executions however this returns; a panic leaves
	// the helpers to finish their current execution and exit.
	defer p.stop()
	p.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go p.help(s.w, s.cfg, borrowed)
	}

	depth := make([]int, nhome)
	var carried, next []carry
	var at sim.Time // chained start of the next execution
	for k := 0; k < execs; k++ {
		out := &p.outs[k]
		p.await(k, x)
		if out.lost || interacts(out, carried, at) {
			reruns.Add(1)
			x.run(k, out, true, carried, at)
		}

		res.Cycles += out.cycles
		res.Breakdown.Add(out.bd)
		res.Failures += out.failures
		res.Exceptions += out.exceptions
		res.FailDetectCycles += out.detect
		if out.failure != nil && res.FirstFailure == nil {
			out.failure.At += at
			res.FirstFailure = out.failure
		}
		if res.InvariantErr == nil {
			res.InvariantErr = out.invErr
		}
		for _, v := range out.verdicts {
			res.Verdicts[v.name] = v.v
		}
		res.MachineStats.Add(out.ms)
		res.CoreStats.Add(out.cs)
		res.NetStats.Add(out.ns)
		res.HomeQueue.Add(out.hq)
		for h, d := range out.depth {
			depth[h] = max(depth[h], d)
		}
		res.Executions++

		// Carry the reservations past this execution's end: its own, and
		// (unless it ran seeded, which already included them) the
		// earlier ones it never touched that still reach past its end.
		end := at + out.span
		next = next[:0]
		if !out.seeded {
			for _, c := range carried {
				if out.first[c.srv] < 0 && c.busy > end {
					next = append(next, c)
				}
			}
		}
		for _, c := range out.resid {
			c.busy += end
			for j := range c.ends {
				c.ends[j] += end
			}
			next = append(next, c)
		}
		carried, next = next, carried
		at = end

		if progress != nil {
			progress(k+1, execs)
		}
	}
	// Every execution has been claimed, so the helpers are exiting.
	p.wg.Wait()

	res.HomeQueue.MaxQueueDepth, res.HomeQueue.MaxQueueHome = 0, -1
	for h, d := range depth {
		if d > res.HomeQueue.MaxQueueDepth {
			res.HomeQueue.MaxQueueDepth, res.HomeQueue.MaxQueueHome = d, h
		}
	}
}
