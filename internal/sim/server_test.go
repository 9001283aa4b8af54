package sim

import "testing"

func TestServerAcquireTiming(t *testing.T) {
	var s Server
	if start := s.Acquire(100, 10); start != 100 {
		t.Fatalf("idle acquire starts at %d, want 100", start)
	}
	if start := s.Acquire(105, 10); start != 110 {
		t.Fatalf("busy acquire starts at %d, want 110", start)
	}
	if s.Stalls != 1 || s.Requests != 2 || s.WaitCycles != 5 || s.BusyCycles != 20 {
		t.Fatalf("stats: stalls=%d requests=%d wait=%d busy=%d",
			s.Stalls, s.Requests, s.WaitCycles, s.BusyCycles)
	}
}

// TestServerTrackDepthTimingUnchanged pins the bit-for-bit guarantee: the
// depth ring observes, it never schedules.
func TestServerTrackDepthTimingUnchanged(t *testing.T) {
	var plain, tracked Server
	tracked.TrackDepth(4)
	arrivals := []struct{ now, occ Time }{
		{0, 10}, {0, 10}, {5, 3}, {40, 7}, {41, 7}, {41, 7}, {200, 1},
	}
	for _, a := range arrivals {
		sp := plain.Acquire(a.now, a.occ)
		st := tracked.Acquire(a.now, a.occ)
		if sp != st {
			t.Fatalf("tracking changed timing: %d vs %d at now=%d", sp, st, a.now)
		}
	}
	if plain.BusyCycles != tracked.BusyCycles || plain.WaitCycles != tracked.WaitCycles ||
		plain.Stalls != tracked.Stalls {
		t.Fatal("tracking changed accumulated statistics")
	}
}

func TestServerMaxDepth(t *testing.T) {
	var s Server
	s.TrackDepth(8)
	// Three arrivals at t=0 with occ 10: depths 1, 2, 3.
	for i := 0; i < 3; i++ {
		s.Acquire(0, 10)
	}
	if s.MaxDepth != 3 {
		t.Fatalf("MaxDepth = %d, want 3", s.MaxDepth)
	}
	if d := s.Depth(0); d != 3 {
		t.Fatalf("Depth(0) = %d, want 3", d)
	}
	if d := s.Depth(15); d != 2 {
		t.Fatalf("Depth(15) = %d, want 2 (first transaction done at 10)", d)
	}
	// After the backlog drains, a lone arrival has depth 1.
	s.Acquire(1000, 10)
	if s.MaxDepth != 3 {
		t.Fatalf("MaxDepth moved to %d after drain", s.MaxDepth)
	}
	if d := s.Depth(1000); d != 1 {
		t.Fatalf("Depth(1000) = %d, want 1", d)
	}
}

func TestServerDepthRingSaturates(t *testing.T) {
	var s Server
	s.TrackDepth(4)
	for i := 0; i < 100; i++ {
		s.Acquire(0, 10) // backlog grows without bound
	}
	if s.MaxDepth != 4 {
		t.Fatalf("MaxDepth = %d, want ring capacity 4", s.MaxDepth)
	}
	if s.Requests != 100 || s.Stalls != 99 {
		t.Fatalf("requests=%d stalls=%d", s.Requests, s.Stalls)
	}
}

func TestServerResetKeepsRing(t *testing.T) {
	var s Server
	s.TrackDepth(4)
	s.Acquire(0, 10)
	s.Acquire(0, 10)
	s.Reset()
	if s.Requests != 0 || s.MaxDepth != 0 || s.BusyUntilTime() != 0 {
		t.Fatalf("Reset left state: %+v", s)
	}
	// Depth tracking still works after Reset.
	s.Acquire(0, 10)
	s.Acquire(0, 10)
	if s.MaxDepth != 2 {
		t.Fatalf("MaxDepth after Reset = %d, want 2", s.MaxDepth)
	}
}

func TestServerDepthDisabledByDefault(t *testing.T) {
	var s Server
	s.Acquire(0, 10)
	s.Acquire(0, 10)
	if s.MaxDepth != 0 || s.Depth(0) != 0 {
		t.Fatalf("untracked server reports depth: max=%d depth=%d", s.MaxDepth, s.Depth(0))
	}
}

func TestServerTrackDepthPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for capacity 0")
		}
	}()
	var s Server
	s.TrackDepth(0)
}

// TestServerSeedContinuesResidual: splitting a server's arrival stream
// at time t and seeding a reset server with the first half's residual
// reproduces the second half exactly — start times, stall and wait
// counts, and queue depths.
func TestServerSeedContinuesResidual(t *testing.T) {
	type arr struct{ now, occ Time }
	before := []arr{{0, 10}, {2, 10}, {3, 10}, {25, 10}, {26, 30}}
	after := []arr{{40, 5}, {41, 5}, {90, 5}, {91, 5}}
	const split = 35

	var whole Server
	whole.TrackDepth(4)
	for _, a := range before {
		whole.Acquire(a.now, a.occ)
	}
	var firsts []Time
	w0 := whole
	for _, a := range after {
		firsts = append(firsts, whole.Acquire(a.now, a.occ))
	}

	var head Server
	head.TrackDepth(4)
	for _, a := range before {
		head.Acquire(a.now, a.occ)
	}
	busy, ends := head.Residual(split, nil)
	if busy <= split || len(ends) == 0 {
		t.Fatalf("residual at %d: busy %d ends %v, want a reservation past the split", split, busy, ends)
	}
	var tail Server
	tail.TrackDepth(4)
	tail.Seed(busy, ends)
	for i, a := range after {
		if got := tail.Acquire(a.now, a.occ); got != firsts[i] {
			t.Fatalf("arrival %d starts at %d seeded, %d chained", i, got, firsts[i])
		}
	}
	if tail.Stalls != whole.Stalls-w0.Stalls || tail.WaitCycles != whole.WaitCycles-w0.WaitCycles ||
		tail.Requests != uint64(len(after)) {
		t.Fatalf("seeded stats %+v differ from the chained tail", tail)
	}
	// The arrival at 41 finds the carried transaction ending at 70 and
	// the one from 40 still in the system.
	if tail.MaxDepth != 3 {
		t.Fatalf("seeded MaxDepth %d, want 3", tail.MaxDepth)
	}
	if f, ok := tail.FirstArrival(); !ok || f != 40 {
		t.Fatalf("FirstArrival = %d, %v; want 40, true", f, ok)
	}

	// A residual that ends before the split carries nothing.
	if b, e := head.Residual(1000, nil); b > 1000 || len(e) != 0 {
		t.Fatalf("late residual %d %v, want none", b, e)
	}
}
