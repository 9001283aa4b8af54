package cpu

import (
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"specrt/internal/core"
	"specrt/internal/machine"
	"specrt/internal/mem"
)

func newSys(t *testing.T, procs int, withCtl bool) (*System, *machine.Machine) {
	t.Helper()
	cfg := machine.DefaultConfig(procs)
	cfg.Contention = false
	m := machine.MustNew(cfg)
	var ctl *core.Controller
	if withCtl {
		ctl = core.NewController(m)
	}
	return NewSystem(m, ctl), m
}

func TestComputeAccounting(t *testing.T) {
	s, _ := newSys(t, 1, false)
	elapsed := s.Run([]int{0}, []Source{SliceSource([]Instr{
		Compute(100), Compute(50),
	})})
	if elapsed != 150 {
		t.Fatalf("elapsed = %d, want 150", elapsed)
	}
	if s.Procs[0].B.Busy != 150 || s.Procs[0].B.Mem != 0 || s.Procs[0].B.Sync != 0 {
		t.Fatalf("breakdown = %+v", s.Procs[0].B)
	}
}

func TestLoadAccounting(t *testing.T) {
	s, m := newSys(t, 2, false)
	arr := m.Space.Alloc("A", 64, 4, mem.Local, 1)
	elapsed := s.Run([]int{0}, []Source{SliceSource([]Instr{
		Load(arr.ElemAddr(0)), // remote miss: 208
		Load(arr.ElemAddr(1)), // L1 hit: 1
	})})
	if elapsed != 209 {
		t.Fatalf("elapsed = %d, want 209", elapsed)
	}
	b := s.Procs[0].B
	if b.Busy != 2 || b.Mem != 207 {
		t.Fatalf("breakdown = %+v, want Busy 2 Mem 207", b)
	}
}

func TestStoreNonStalling(t *testing.T) {
	s, m := newSys(t, 2, false)
	arr := m.Space.Alloc("A", 64, 4, mem.Local, 1)
	elapsed := s.Run([]int{0}, []Source{SliceSource([]Instr{
		Store(arr.ElemAddr(0)), // remote write miss: processor sees 1
	})})
	if elapsed != 1 {
		t.Fatalf("elapsed = %d, want 1", elapsed)
	}
	if s.Procs[0].B.Mem != 0 {
		t.Fatalf("store charged Mem: %+v", s.Procs[0].B)
	}
}

func TestTwoProcsOverlap(t *testing.T) {
	s, _ := newSys(t, 2, false)
	elapsed := s.Run([]int{0, 1}, []Source{
		SliceSource([]Instr{Compute(100)}),
		SliceSource([]Instr{Compute(70)}),
	})
	if elapsed != 100 {
		t.Fatalf("parallel compute elapsed = %d, want 100", elapsed)
	}
}

func TestLockMutualExclusionAndSyncTime(t *testing.T) {
	s, _ := newSys(t, 2, false)
	// Both grab the lock and hold it for 100 cycles.
	prog := []Instr{LockAcq(1), Compute(100), LockRel(1)}
	s.Run([]int{0, 1}, []Source{SliceSource(prog), SliceSource(append([]Instr(nil), prog...))})
	b0, b1 := s.Procs[0].B, s.Procs[1].B
	// One of the two must have waited roughly the critical section.
	wait := b0.Sync + b1.Sync
	if wait < 100 {
		t.Fatalf("combined Sync = %d, expected >= 100 (critical section)", wait)
	}
	if b0.Busy != 100 || b1.Busy != 100 {
		t.Fatalf("busy = %d/%d, want 100/100", b0.Busy, b1.Busy)
	}
}

func TestLockHandoffOrder(t *testing.T) {
	s, _ := newSys(t, 3, false)
	var order []int
	mk := func(id int) Source {
		emitted := 0
		return func(p *Proc) (Instr, bool) {
			switch emitted {
			case 0:
				emitted++
				return LockAcq(7), true
			case 1:
				emitted++
				order = append(order, id)
				return LockRel(7), true
			}
			return Instr{}, false
		}
	}
	s.Run([]int{0, 1, 2}, []Source{mk(0), mk(1), mk(2)})
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestReleaseUnheldLockPanics(t *testing.T) {
	s, _ := newSys(t, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("release of unheld lock did not panic")
		}
	}()
	s.Run([]int{0}, []Source{SliceSource([]Instr{LockRel(3)})})
}

func TestBarrierReleasesTogether(t *testing.T) {
	s, _ := newSys(t, 2, false)
	s.SetBarrier(1, 2)
	var doneAt [2]int64
	mk := func(id int, work int64) Source {
		st := 0
		return func(p *Proc) (Instr, bool) {
			switch st {
			case 0:
				st++
				return Compute(work), true
			case 1:
				st++
				return Barrier(1), true
			}
			doneAt[id] = s.M.Eng.Now()
			return Instr{}, false
		}
	}
	s.Run([]int{0, 1}, []Source{mk(0, 10), mk(1, 500)})
	if doneAt[0] != doneAt[1] {
		t.Fatalf("barrier exits differ: %v", doneAt)
	}
	// The fast processor waited ~490 cycles.
	if s.Procs[0].B.Sync < 490 {
		t.Fatalf("fast proc Sync = %d, want >= 490", s.Procs[0].B.Sync)
	}
}

func TestBarrierReuse(t *testing.T) {
	s, _ := newSys(t, 2, false)
	s.SetBarrier(1, 2)
	prog := []Instr{Barrier(1), Compute(10), Barrier(1)}
	elapsed := s.Run([]int{0, 1}, []Source{
		SliceSource(prog), SliceSource(append([]Instr(nil), prog...)),
	})
	if elapsed <= 0 {
		t.Fatal("barrier reuse deadlocked or no time elapsed")
	}
	for _, p := range s.Procs {
		if !p.Done {
			t.Fatal("processor stuck at reused barrier")
		}
	}
}

func TestUndeclaredBarrierPanics(t *testing.T) {
	s, _ := newSys(t, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("undeclared barrier did not panic")
		}
	}()
	s.Run([]int{0}, []Source{SliceSource([]Instr{Barrier(99)})})
}

func TestSpeculativeFailureAborts(t *testing.T) {
	s, m := newSys(t, 2, true)
	r := m.Space.Alloc("A", 64, 4, mem.RoundRobin, 0)
	s.Ctl.AddNonPriv(r)
	s.Ctl.Arm()
	// P0 writes elem 5 then spins; P1 reads elem 5 -> dependence.
	p0 := []Instr{Store(r.ElemAddr(5)), Compute(100000)}
	p1 := []Instr{Compute(500), Load(r.ElemAddr(5)), Compute(100000)}
	elapsed := s.Run([]int{0, 1}, []Source{SliceSource(p0), SliceSource(p1)})
	f, aborted := s.Aborted()
	if !aborted || f == nil {
		t.Fatal("dependence did not abort the run")
	}
	// Abort must cut the run short: both procs had 100000-cycle tails.
	if elapsed >= 100000 {
		t.Fatalf("abort too late: elapsed = %d", elapsed)
	}
}

func TestAsyncFailureAborts(t *testing.T) {
	s, m := newSys(t, 2, true)
	r := m.Space.Alloc("A", 64, 4, mem.RoundRobin, 0)
	s.Ctl.AddNonPriv(r)
	s.Ctl.Arm()
	// Both procs cache the line, then race First_update vs write: the
	// failure arrives via a deferred message (machine.OnFail).
	p0 := []Instr{Load(r.ElemAddr(0)), Compute(10), Load(r.ElemAddr(2)), Compute(100000)}
	p1 := []Instr{Load(r.ElemAddr(1)), Compute(11), Store(r.ElemAddr(2)), Compute(100000)}
	s.Run([]int{0, 1}, []Source{SliceSource(p0), SliceSource(p1)})
	if _, aborted := s.Aborted(); !aborted {
		t.Fatal("async race failure did not abort")
	}
}

func TestBeginIterCost(t *testing.T) {
	s, m := newSys(t, 1, true)
	r := m.Space.Alloc("A", 64, 4, mem.RoundRobin, 0)
	s.Ctl.AddPriv(r, true)
	s.Ctl.Arm()
	elapsed := s.Run([]int{0}, []Source{SliceSource([]Instr{BeginIter(1)})})
	if elapsed != s.Ctl.IterClearCost {
		t.Fatalf("BeginIter cost = %d, want %d", elapsed, s.Ctl.IterClearCost)
	}
}

func TestInstrCounts(t *testing.T) {
	s, m := newSys(t, 1, false)
	arr := m.Space.Alloc("A", 64, 4, mem.Local, 0)
	s.Run([]int{0}, []Source{SliceSource([]Instr{
		Compute(1), Load(arr.ElemAddr(0)), Store(arr.ElemAddr(1)), Compute(2),
	})})
	p := s.Procs[0]
	if p.Instrs[KCompute] != 2 || p.Instrs[KLoad] != 1 || p.Instrs[KStore] != 1 {
		t.Fatalf("instr counts = %v", p.Instrs)
	}
}

func TestBreakdownAddTotal(t *testing.T) {
	a := Breakdown{Busy: 1, Mem: 2, Sync: 3}
	b := Breakdown{Busy: 10, Mem: 20, Sync: 30}
	a.Add(b)
	if a.Busy != 11 || a.Mem != 22 || a.Sync != 33 || a.Total() != 66 {
		t.Fatalf("Add/Total wrong: %+v", a)
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KCompute: "compute", KLoad: "load", KStore: "store",
		KLockAcq: "lockacq", KLockRel: "lockrel", KBarrier: "barrier",
		KBeginIter: "beginiter",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind should stringify")
	}
}

func TestDynamicSourceSeesSharedState(t *testing.T) {
	// A Source that consults shared scheduling state at request time:
	// the slow processor gets fewer chunks.
	s, _ := newSys(t, 2, false)
	next := 0
	total := 10
	mk := func(cost int64) Source {
		pending := 0
		return func(p *Proc) (Instr, bool) {
			if pending > 0 {
				pending--
				return Compute(cost), true
			}
			if next >= total {
				return Instr{}, false
			}
			next++
			pending = 0
			return Compute(cost), true
		}
	}
	s.Run([]int{0, 1}, []Source{mk(10), mk(100)})
	// Fast proc executed more chunks.
	if s.Procs[0].Instrs[KCompute] <= s.Procs[1].Instrs[KCompute] {
		t.Fatalf("dynamic imbalance not visible: %d vs %d",
			s.Procs[0].Instrs[KCompute], s.Procs[1].Instrs[KCompute])
	}
}

func TestDeadlockPanics(t *testing.T) {
	// A processor acquiring a lock that is never released by the holder
	// deadlocks; Run must panic rather than silently truncate the phase.
	s, _ := newSys(t, 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked run did not panic")
		}
	}()
	s.Run([]int{0, 1}, []Source{
		SliceSource([]Instr{LockAcq(1), Compute(10)}), // holds forever
		SliceSource([]Instr{LockAcq(1), Compute(10)}), // waits forever
	})
}

func TestDeadlockPanicNamesWaiters(t *testing.T) {
	// The deadlock panic must carry enough to debug it: the simulated
	// time of the stall and, for each stuck processor, the object it is
	// blocked on. One processor reaches a two-party barrier that its
	// partner (stuck behind a never-released lock) can never join.
	s, _ := newSys(t, 2, false)
	s.SetBarrier(3, 2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked run did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, want := range []string{
			"deadlock at simulated time 1", // p0 takes lock 7 (1 cycle) and reaches barrier 3; p1 blocks on the lock
			"processor 0 blocked at barrier 3",
			"processor 1 blocked at lock 7",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock panic %q missing %q", msg, want)
			}
		}
	}()
	s.Costs.LockAcquire = 1
	s.Run([]int{0, 1}, []Source{
		SliceSource([]Instr{LockAcq(7), Barrier(3)}), // holds the lock at the barrier
		SliceSource([]Instr{LockAcq(7), Barrier(3)}), // can never get there
	})
}

func TestLockStateResetsBetweenRuns(t *testing.T) {
	// An aborted run can leave a lock held; the next Run starts fresh.
	s, m := newSys(t, 2, true)
	r := m.Space.Alloc("A", 64, 4, mem.RoundRobin, 0)
	s.Ctl.AddNonPriv(r)
	s.Ctl.Arm()
	// P0 takes the lock then triggers a failure via P1's access.
	p0 := []Instr{LockAcq(1), Store(r.ElemAddr(5)), Compute(100000)}
	p1 := []Instr{Compute(200), Load(r.ElemAddr(5))}
	s.Run([]int{0, 1}, []Source{SliceSource(p0), SliceSource(p1)})
	if _, aborted := s.Aborted(); !aborted {
		t.Fatal("setup: run did not abort")
	}
	s.Ctl.Disarm()
	// A fresh run using the same lock must complete.
	done := s.Run([]int{0, 1}, []Source{
		SliceSource([]Instr{LockAcq(1), Compute(5), LockRel(1)}),
		SliceSource([]Instr{LockAcq(1), Compute(5), LockRel(1)}),
	})
	if done <= 0 {
		t.Fatal("post-abort run made no progress")
	}
	for _, p := range s.Procs {
		if !p.Done {
			t.Fatal("processor stuck on stale lock state")
		}
	}
}

// TestContendedLockHandoffAllocs: lock handoffs pop waiters by shifting
// the retained lists, so once a contended phase has sized them, running
// it again allocates nothing.
func TestContendedLockHandoffAllocs(t *testing.T) {
	s, _ := newSys(t, 4, false)
	ids := []int{0, 1, 2, 3}
	streams := make([][]Instr, len(ids))
	for i := range streams {
		for k := 0; k < 50; k++ {
			streams[i] = append(streams[i], LockAcq(1), Compute(10), LockRel(1))
		}
	}
	// Size the lock lists, and let the advancing clock visit (and grow)
	// every timing-wheel bucket.
	for i := 0; i < 500; i++ {
		s.RunSlices(ids, streams)
	}
	allocs := testing.AllocsPerRun(5, func() { s.RunSlices(ids, streams) })
	if allocs != 0 {
		t.Fatalf("contended lock phase allocated %.0f times per run, want 0", allocs)
	}
	if cap(s.locks[1].waiters) == 0 {
		t.Fatal("the lock was never contended")
	}
}

// TestInstrLayout pins the packed instruction: 16 bytes with no pointer,
// so instruction buffers are half their former size and stay out of the
// collector's scan.
func TestInstrLayout(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 16 {
		t.Fatalf("Instr is %d bytes, want 16", got)
	}
	typ := reflect.TypeOf(Instr{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() > reflect.Complex128 { // not a bool or number
			t.Errorf("Instr field %s is a %v, which may hold a pointer", f.Name, f.Type)
		}
	}
	if in := Compute(-7); in.Cycles() != -7 {
		t.Errorf("Compute(-7).Cycles() = %d", in.Cycles())
	}
	if in := Store(1 << 40); in.Addr() != 1<<40 || in.Kind != KStore {
		t.Errorf("Store(1<<40) = %+v", in)
	}
}

// TestIDRange checks that an ID outside int32 is rejected with an
// *IDRangeError instead of being truncated into Instr.ID.
func TestIDRange(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("every int fits the ID field")
	}
	big := math.MaxInt32
	if CheckID("lock", big) != nil || BeginIter(big).ID != math.MaxInt32 {
		t.Fatal("MaxInt32 rejected")
	}
	big++
	var re *IDRangeError
	if err := CheckID("iteration count", big); !errors.As(err, &re) || re.Value != big {
		t.Fatalf("CheckID(%d) = %v", big, err)
	}
	for name, mk := range map[string]func(int) Instr{
		"LockAcq": LockAcq, "LockRel": LockRel, "Barrier": Barrier, "BeginIter": BeginIter,
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.As(err, &re) {
					t.Errorf("%s(%d) did not panic with an *IDRangeError: %v", name, big, err)
				}
			}()
			mk(big)
		}()
	}
}
