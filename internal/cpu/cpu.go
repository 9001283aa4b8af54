// Package cpu models the processors executing a (speculative) parallel
// loop on the simulated machine. Processors execute instruction streams —
// compute delays, loads, stores, lock and barrier operations — one
// instruction per simulation event, and account their time in the paper's
// three categories: executing instructions (Busy), synchronizing at locks
// or barriers (Sync), and waiting for data from the memory system (Mem)
// (§6.1, Figure 12).
package cpu

import (
	"fmt"
	"strings"

	"specrt/internal/core"
	"specrt/internal/machine"
	"specrt/internal/mem"
	"specrt/internal/sim"
)

// Kind is an instruction opcode.
type Kind uint8

const (
	// KCompute spends Cycles cycles of pure computation.
	KCompute Kind = iota
	// KLoad reads Addr through the memory system.
	KLoad
	// KStore writes Addr; stores do not stall the processor.
	KStore
	// KLockAcq acquires lock ID (blocking).
	KLockAcq
	// KLockRel releases lock ID.
	KLockRel
	// KBarrier joins barrier ID and blocks until all participants
	// arrive.
	KBarrier
	// KBeginIter starts (super-)iteration ID on this processor: the
	// speculation hardware clears per-iteration tag bits (§4.1).
	KBeginIter
	// KException models a run-time exception during speculative
	// execution (§2.2: the execution is aborted and restarted
	// serially).
	KException
)

func (k Kind) String() string {
	switch k {
	case KCompute:
		return "compute"
	case KLoad:
		return "load"
	case KStore:
		return "store"
	case KLockAcq:
		return "lockacq"
	case KLockRel:
		return "lockrel"
	case KBarrier:
		return "barrier"
	case KBeginIter:
		return "beginiter"
	case KException:
		return "exception"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Instr is one processor instruction. A flat struct (not an interface)
// keeps instruction streams allocation-free.
type Instr struct {
	Kind   Kind
	Cycles sim.Time // KCompute
	Addr   mem.Addr // KLoad, KStore
	ID     int      // lock/barrier ID, or iteration number for KBeginIter
}

// Convenience constructors.
func Compute(cycles sim.Time) Instr { return Instr{Kind: KCompute, Cycles: cycles} }
func Load(a mem.Addr) Instr         { return Instr{Kind: KLoad, Addr: a} }
func Store(a mem.Addr) Instr        { return Instr{Kind: KStore, Addr: a} }
func LockAcq(id int) Instr          { return Instr{Kind: KLockAcq, ID: id} }
func LockRel(id int) Instr          { return Instr{Kind: KLockRel, ID: id} }
func Barrier(id int) Instr          { return Instr{Kind: KBarrier, ID: id} }
func BeginIter(iter int) Instr      { return Instr{Kind: KBeginIter, ID: iter} }
func Exception() Instr              { return Instr{Kind: KException} }

// Breakdown is a processor's time split into the paper's categories.
type Breakdown struct {
	Busy sim.Time
	Mem  sim.Time
	Sync sim.Time
}

// Total returns the accounted cycles.
func (b Breakdown) Total() sim.Time { return b.Busy + b.Mem + b.Sync }

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.Busy += o.Busy
	b.Mem += o.Mem
	b.Sync += o.Sync
}

// SyncCosts parameterize the lock and barrier implementations.
type SyncCosts struct {
	LockAcquire sim.Time // uncontended acquire (remote lock variable)
	LockHandoff sim.Time // release-to-waiter transfer
	BarrierCost sim.Time // per-processor barrier entry/exit overhead
}

// DefaultSyncCosts match a NUMA lock/barrier implemented over the
// machine's remote-access latencies.
func DefaultSyncCosts() SyncCosts {
	return SyncCosts{LockAcquire: 30, LockHandoff: 40, BarrierCost: 40}
}

// Source supplies a processor's instruction stream lazily: it is called
// when the processor is ready for its next instruction, so a source may
// consult shared scheduling state (e.g. a dynamic iteration dispenser) at
// the moment of the request. Returning ok=false ends the processor's
// work.
type Source func(p *Proc) (Instr, bool)

// BulkSource optionally supplements a Source: it returns a view of
// instructions the source has ALREADY generated (never generating new
// ones — generation may touch shared scheduling state, whose update
// order must stay tied to consumption order), which the processor then
// consumes without a per-instruction source call. An empty return falls
// back to the plain Source. The view is owned by the processor until
// fully consumed; the source must not reuse its backing storage before
// its next generation, which cannot happen earlier than the processor's
// next Source/BulkSource call.
type BulkSource func(p *Proc) []Instr

// Proc is one executing processor.
type Proc struct {
	ID   int
	B    Breakdown
	Done bool

	// Instrs counts executed instructions by kind.
	Instrs [8]uint64

	src     Source
	bulk    BulkSource
	blocked bool
	sys     *System

	// q is the bulk-refill queue: a view of already-generated
	// instructions handed over by bulk, consumed by index so the hot
	// take path is a bounds check instead of an indirect call.
	q  []Instr
	qh int
	// stepFn is the processor's step closure, bound once at system
	// construction: scheduling it allocates nothing, where a fresh
	// closure per instruction event would dominate the simulator's
	// allocation profile.
	stepFn func()

	// pending is a one-instruction pushback buffer: sources are
	// consuming closures, so when the fused fast path pulls an
	// instruction it cannot execute inline, it parks it here for the
	// stepped path to pick up at the right simulated time.
	pending    Instr
	hasPending bool

	// waitKind/waitID identify what a blocked processor is waiting on
	// ("lock" or "barrier" plus its ID), so a deadlock can name every
	// blocked processor's wait object instead of just one ID.
	waitKind string
	waitID   int
}

// take returns the processor's next instruction, honoring the pushback
// buffer and the bulk queue before consulting the source.
func (p *Proc) take() (Instr, bool) {
	if p.hasPending {
		p.hasPending = false
		return p.pending, true
	}
	if p.qh < len(p.q) {
		in := p.q[p.qh]
		p.qh++
		return in, true
	}
	if p.bulk != nil {
		if q := p.bulk(p); len(q) > 0 {
			p.q, p.qh = q, 1
			return q[0], true
		}
	}
	return p.src(p)
}

// System drives a set of processors over a machine. If Ctl is non-nil,
// loads and stores are routed through the speculation controller;
// otherwise they use the plain protocol.
type System struct {
	M     *machine.Machine
	Ctl   *core.Controller
	Costs SyncCosts

	// FastPath enables local-horizon batched execution: runs of compute
	// and classified-pure cache hits execute inline in one event instead
	// of one event each. The horizon rules in fuse() make the fused
	// schedule cycle-exact with per-instruction stepping, so results are
	// byte-identical either way; the run layer turns it off for
	// invariant-checked executions and via run.Config.NoFastPath, and it
	// self-disables whenever the engine has an order policy installed.
	FastPath bool

	Procs []*Proc

	locks    map[int]*lock
	barriers map[int]*barrier

	aborted  bool
	excepted bool
	failure  *core.Failure
	running  int
	started  sim.Time

	// doneSrc is RunSlices' reusable slice of noInstr sources.
	doneSrc []Source
}

type lock struct {
	held    bool
	waiters []*Proc
	arrived []sim.Time
}

type barrier struct {
	need    int
	procs   []*Proc
	arrived []sim.Time
}

// NewSystem creates a system for all processors of m.
func NewSystem(m *machine.Machine, ctl *core.Controller) *System {
	s := &System{
		M:        m,
		Ctl:      ctl,
		Costs:    DefaultSyncCosts(),
		locks:    make(map[int]*lock),
		barriers: make(map[int]*barrier),
	}
	for i := 0; i < m.Cfg.Procs; i++ {
		p := &Proc{ID: i, sys: s}
		p.stepFn = func() { s.step(p) }
		s.Procs = append(s.Procs, p)
	}
	// Asynchronous failures (detected at a directory by a deferred
	// message) abort the whole speculative execution.
	m.OnFail = func(err error) {
		if f, ok := err.(*core.Failure); ok {
			s.abort(f)
		}
	}
	return s
}

// Aborted reports whether the run was aborted and by which failure.
// failure is nil when the abort came from an exception.
func (s *System) Aborted() (*core.Failure, bool) { return s.failure, s.aborted }

// Excepted reports whether the abort was caused by an exception.
func (s *System) Excepted() bool { return s.excepted }

// abort stops the speculative execution immediately: pending events are
// discarded so the simulated clock freezes at the failure, matching the
// paper's "execution stops" semantics. In-flight protocol messages are
// dropped; the runtime restores state before re-executing serially.
func (s *System) abort(f *core.Failure) {
	if s.aborted {
		return
	}
	s.aborted = true
	s.failure = f
	s.M.Eng.Drain()
	s.M.ResetMessages()
	for _, p := range s.Procs {
		p.Done = true
		p.blocked = false
	}
	s.running = 0
}

// Run executes the given instruction sources (one per participating
// processor; sources[i] drives processor procIDs[i]) to completion or
// abort, and returns the elapsed cycles. An optional bulk argument
// supplies per-processor BulkSources parallel to sources.
func (s *System) Run(procIDs []int, sources []Source, bulk ...[]BulkSource) sim.Time {
	if len(procIDs) != len(sources) {
		panic("cpu: procIDs and sources length mismatch")
	}
	var bulks []BulkSource
	if len(bulk) > 0 {
		bulks = bulk[0]
		if len(bulks) != len(sources) {
			panic("cpu: bulk sources and sources length mismatch")
		}
	}
	return s.run(procIDs, sources, bulks, nil)
}

// run starts the processors of one phase and runs the engine until it
// drains. queues, when non-nil, preloads each processor's bulk queue.
func (s *System) run(procIDs []int, sources []Source, bulks []BulkSource, queues [][]Instr) sim.Time {
	s.aborted = false
	s.excepted = false
	s.failure = nil
	s.running = len(procIDs)
	s.started = s.M.Eng.Now()
	// A previous aborted run may have left a lock held by a processor
	// that no longer exists or a barrier partially filled; every Run is
	// a fresh phase.
	for _, l := range s.locks {
		l.held = false
		l.waiters = l.waiters[:0]
		l.arrived = l.arrived[:0]
	}
	for _, b := range s.barriers {
		b.procs = b.procs[:0]
		b.arrived = b.arrived[:0]
	}
	for i, id := range procIDs {
		p := s.Procs[id]
		p.src = sources[i]
		p.bulk = nil
		if bulks != nil {
			p.bulk = bulks[i]
		}
		p.q, p.qh = nil, 0
		if queues != nil {
			p.q = queues[i]
		}
		p.Done = false
		p.blocked = false
		p.hasPending = false
		p.waitKind = ""
		s.M.Eng.Schedule(0, p.stepFn)
	}
	s.M.Eng.Run()
	if !s.aborted {
		var stuck []string
		for _, id := range procIDs {
			if p := s.Procs[id]; !p.Done {
				// A blocked processor with no runnable events is a
				// deadlock; silently truncating the phase would corrupt
				// every result built on it.
				if p.waitKind != "" {
					stuck = append(stuck, fmt.Sprintf("processor %d blocked at %s %d", p.ID, p.waitKind, p.waitID))
				} else {
					stuck = append(stuck, fmt.Sprintf("processor %d not done (no runnable events)", p.ID))
				}
			}
		}
		if len(stuck) > 0 {
			panic(fmt.Sprintf("cpu: deadlock at simulated time %d: %s",
				s.M.Eng.Now(), strings.Join(stuck, "; ")))
		}
	}
	return s.M.Eng.Now() - s.started
}

// finish marks a processor complete.
func (s *System) finish(p *Proc) {
	if !p.Done {
		p.Done = true
		s.running--
	}
}

// step runs when a processor's next instruction is due: it executes one
// instruction — or, on the fast path, a whole run of locally
// deterministic ones — and schedules the step for whatever follows.
func (s *System) step(p *Proc) {
	if p.Done || p.blocked {
		return
	}
	if s.aborted {
		s.finish(p)
		return
	}
	// The bulk-queue fast case is written out here (and in fuse's loop):
	// one call per instruction to take() is measurable at instruction
	// volume, and this branch hits whenever a bulk source is wired.
	var in Instr
	var ok bool
	if !p.hasPending && p.qh < len(p.q) {
		in, ok = p.q[p.qh], true
		p.qh++
	} else if in, ok = p.take(); !ok {
		s.finish(p)
		return
	}
	if s.FastPath && !s.M.Eng.OrderPolicyActive() && s.fuse(p, in) {
		return
	}
	s.exec1(p, in)
}

// fuse executes a local-horizon batch starting with `first` and reports
// whether it handled it (false: nothing was consumed or performed; the
// caller runs the stepped path).
//
// Exactness argument. In stepped mode, instruction i of the run executes
// inside an event at its issue time T_i, and T_{i+1} = T_i + lat_i. A
// fused instruction is locally deterministic — it schedules nothing,
// reads nothing time-dependent, and cannot fail — so while the batch
// runs, no event executes and none is added: the earliest pending event
// time (`limit`) is constant, computed once up front. Fusing instruction
// i is allowed only while T_i < limit (the first instruction is exempt:
// this step event IS its issue at T_0 = now). That guarantees every
// fused instruction would have issued before any pending event in
// stepped mode — including an abort: aborts originate from events, which
// all lie at or beyond limit, so a speculation failure lands exactly
// between the fused run and the single follow-up step scheduled at its
// end, where the stepped schedule would also have put it. Cycle
// accounting per instruction is byte-for-byte the stepped arithmetic,
// and the accesses themselves are performed through the normal
// read/write entry points, so stats and tag-bit state match too.
func (s *System) fuse(p *Proc, first Instr) bool {
	eng := s.M.Eng
	limit, bounded := eng.PeekTime()
	end := eng.Now()
	if bounded && limit-end < 2 {
		// Another event is due within a cycle (processors running in
		// lockstep): no second instruction can fit before the limit, so a
		// batch would hold exactly one instruction — all classification
		// overhead, no saved events. Step instead.
		return false
	}
	lat, ok := s.fuseOne(p, first)
	if !ok {
		return false
	}
	end += lat
	for {
		if bounded && end >= limit {
			break
		}
		var in Instr
		var ok bool
		if !p.hasPending && p.qh < len(p.q) {
			in, ok = p.q[p.qh], true
			p.qh++
		} else if in, ok = p.take(); !ok {
			// Source exhausted: the step below observes it at the run's
			// end time and finishes the processor, as stepped mode would.
			break
		}
		lat, ok := s.fuseOne(p, in)
		if !ok {
			p.pending, p.hasPending = in, true
			break
		}
		end += lat
	}
	eng.At(end, p.stepFn)
	return true
}

// fuseOne classifies one instruction and, if it is locally deterministic,
// performs it inline, returning the latency to advance the virtual clock
// by. ok=false leaves the instruction unperformed and uncounted.
func (s *System) fuseOne(p *Proc, in Instr) (sim.Time, bool) {
	switch in.Kind {
	case KCompute:
		p.Instrs[KCompute]++
		p.B.Busy += in.Cycles
		return in.Cycles, true

	case KLoad:
		lat, ok := s.tryRead(p.ID, in.Addr)
		if !ok {
			return 0, false
		}
		p.Instrs[KLoad]++
		s.accountMem(p, lat)
		return lat, true

	case KStore:
		lat, ok := s.tryWrite(p.ID, in.Addr)
		if !ok {
			return 0, false
		}
		p.Instrs[KStore]++
		s.accountMem(p, lat)
		return lat, true
	}
	return 0, false
}

// accountMem splits a memory access latency into Busy and Mem exactly as
// the stepped path does.
func (s *System) accountMem(p *Proc, lat sim.Time) {
	busy := lat
	if busy > s.M.Cfg.Lat.L1Hit {
		busy = s.M.Cfg.Lat.L1Hit
	}
	p.B.Busy += busy
	p.B.Mem += lat - busy
}

// tryRead/tryWrite classify-and-perform an access in one pass for the
// fast path, dispatching to the armed controller or the plain machine.
func (s *System) tryRead(p int, a mem.Addr) (sim.Time, bool) {
	if s.Ctl != nil {
		return s.Ctl.TryRead(p, a)
	}
	return s.M.TryFastRead(p, a)
}

func (s *System) tryWrite(p int, a mem.Addr) (sim.Time, bool) {
	if s.Ctl != nil {
		return s.Ctl.TryWrite(p, a)
	}
	return s.M.TryFastWrite(p, a)
}

// exec1 executes one instruction of p on the stepped path and schedules
// the next step.
func (s *System) exec1(p *Proc, in Instr) {
	p.Instrs[in.Kind]++

	switch in.Kind {
	case KCompute:
		p.B.Busy += in.Cycles
		s.M.Eng.Schedule(in.Cycles, p.stepFn)

	case KLoad:
		lat, err := s.read(p.ID, in.Addr)
		busy := lat
		if busy > s.M.Cfg.Lat.L1Hit {
			busy = s.M.Cfg.Lat.L1Hit
		}
		p.B.Busy += busy
		p.B.Mem += lat - busy
		if err != nil {
			s.failSync(err)
			s.finish(p)
			return
		}
		s.M.Eng.Schedule(lat, p.stepFn)

	case KStore:
		lat, err := s.write(p.ID, in.Addr)
		busy := lat
		if busy > s.M.Cfg.Lat.L1Hit {
			busy = s.M.Cfg.Lat.L1Hit
		}
		p.B.Busy += busy
		p.B.Mem += lat - busy
		if err != nil {
			s.failSync(err)
			s.finish(p)
			return
		}
		s.M.Eng.Schedule(lat, p.stepFn)

	case KBeginIter:
		var cost sim.Time
		if s.Ctl != nil {
			cost = s.Ctl.BeginIteration(p.ID, in.ID)
		}
		p.B.Busy += cost
		s.M.Eng.Schedule(cost, p.stepFn)

	case KLockAcq:
		s.lockAcquire(p, in.ID)

	case KLockRel:
		s.lockRelease(p, in.ID)

	case KBarrier:
		s.barrierArrive(p, in.ID)

	case KException:
		// The speculative execution aborts immediately; the run-time
		// restores state and restarts serially (§2.2).
		s.excepted = true
		s.abort(nil)
	}
}

func (s *System) read(p int, a mem.Addr) (sim.Time, error) {
	if s.Ctl != nil {
		return s.Ctl.Read(p, a)
	}
	return s.M.Read(p, a), nil
}

func (s *System) write(p int, a mem.Addr) (sim.Time, error) {
	if s.Ctl != nil {
		return s.Ctl.Write(p, a)
	}
	return s.M.Write(p, a), nil
}

// failSync handles a failure detected synchronously by p's own access.
func (s *System) failSync(err error) {
	if f, ok := err.(*core.Failure); ok {
		s.abort(f)
	} else {
		panic(fmt.Sprintf("cpu: unexpected access error %v", err))
	}
}

func (s *System) lockAcquire(p *Proc, id int) {
	l := s.locks[id]
	if l == nil {
		l = &lock{}
		s.locks[id] = l
	}
	if !l.held {
		l.held = true
		p.B.Sync += s.Costs.LockAcquire
		s.M.Eng.Schedule(s.Costs.LockAcquire, p.stepFn)
		return
	}
	p.blocked = true
	p.waitKind, p.waitID = "lock", id
	l.waiters = append(l.waiters, p)
	l.arrived = append(l.arrived, s.M.Eng.Now())
}

func (s *System) lockRelease(p *Proc, id int) {
	l := s.locks[id]
	if l == nil || !l.held {
		panic(fmt.Sprintf("cpu: release of unheld lock %d", id))
	}
	// The releaser continues immediately.
	s.M.Eng.Schedule(0, p.stepFn)
	if len(l.waiters) == 0 {
		l.held = false
		return
	}
	w := l.waiters[0]
	at := l.arrived[0]
	// Pop by shifting, not reslicing: l.waiters[1:] would leak a slot of
	// capacity per handoff, and lockAcquire would keep regrowing the
	// lists.
	l.waiters = l.waiters[:copy(l.waiters, l.waiters[1:])]
	l.arrived = l.arrived[:copy(l.arrived, l.arrived[1:])]
	handoff := s.Costs.LockHandoff
	w.blocked = false
	w.waitKind = ""
	release := s.M.Eng.Now()
	w.B.Sync += release - at + handoff
	s.M.Eng.Schedule(handoff, w.stepFn)
}

// SetBarrier declares barrier id to expect n participants. Barriers must
// be declared before use so that a subset of processors can synchronize.
func (s *System) SetBarrier(id, n int) {
	s.barriers[id] = &barrier{need: n}
}

func (s *System) barrierArrive(p *Proc, id int) {
	b := s.barriers[id]
	if b == nil {
		panic(fmt.Sprintf("cpu: barrier %d not declared", id))
	}
	b.procs = append(b.procs, p)
	b.arrived = append(b.arrived, s.M.Eng.Now())
	if len(b.procs) < b.need {
		p.blocked = true
		p.waitKind, p.waitID = "barrier", id
		return
	}
	// Last arrival releases everyone.
	release := s.M.Eng.Now()
	cost := s.Costs.BarrierCost
	for i, q := range b.procs {
		q.blocked = false
		q.waitKind = ""
		q.B.Sync += release - b.arrived[i] + cost
		s.M.Eng.Schedule(cost, q.stepFn)
	}
	b.procs = b.procs[:0]
	b.arrived = b.arrived[:0]
}

// SliceSource adapts a pre-built instruction slice into a Source.
func SliceSource(instrs []Instr) Source {
	i := 0
	return func(*Proc) (Instr, bool) {
		if i >= len(instrs) {
			return Instr{}, false
		}
		in := instrs[i]
		i++
		return in, true
	}
}

// RunSlices is Run over pre-built instruction slices (streams[i] drives
// processor procIDs[i]): each slice goes straight into its processor's
// bulk queue, so a phase whose work is fully generated up front needs no
// per-processor source closures. The caller must not mutate the slices
// while the processors run.
func (s *System) RunSlices(procIDs []int, streams [][]Instr) sim.Time {
	if len(procIDs) != len(streams) {
		panic("cpu: procIDs and streams length mismatch")
	}
	if cap(s.doneSrc) < len(procIDs) {
		s.doneSrc = make([]Source, len(procIDs))
		for i := range s.doneSrc {
			s.doneSrc[i] = noInstr
		}
	}
	return s.run(procIDs, s.doneSrc[:len(procIDs)], nil, streams)
}

// noInstr is the source behind a RunSlices queue: once the queue is
// consumed the processor has no more work.
func noInstr(*Proc) (Instr, bool) { return Instr{}, false }
