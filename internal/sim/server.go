package sim

// Server models a single-ported resource (a directory controller, a memory
// bank, a network link) with deterministic FIFO queueing. A transaction
// arriving at time t begins service at max(t, busyUntil), occupies the
// server for its occupancy, and delays later arrivals. This is the classic
// "busy-until" contention model: it captures queueing delay shape without
// simulating individual queue slots.
//
// TrackDepth optionally adds exact in-system counting on top: the server
// remembers the service-end times of transactions still queued or in
// service in a fixed-capacity ring, so callers can observe the deepest
// queue a resource ever built (MaxDepth). Tracking never changes timing
// and never allocates on the Acquire path.
type Server struct {
	busyUntil Time
	// first is the arrival time of the first Acquire since the last
	// Reset or Seed (meaningful while Requests > 0).
	first Time

	// ends is the optional depth-tracking ring (see TrackDepth): the
	// service-end times of transactions still in the system, oldest at
	// head. The ring is materialized on the first tracked arrival, not
	// in TrackDepth itself: a wide machine declares tracking on every
	// home node and mesh link, but most of those servers never see a
	// transaction, and eagerly allocated rings dominated run setup.
	ends    []Time
	ringCap int // requested capacity; 0 = tracking disabled
	head    int
	n       int

	// Accumulated statistics.
	BusyCycles Time   // total cycles spent in service
	WaitCycles Time   // total cycles transactions spent queued
	Requests   uint64 // number of transactions served
	// Stalls counts transactions that arrived while the server was busy
	// (each such arrival serialized behind earlier work).
	Stalls uint64
	// MaxDepth is the deepest in-system count observed at any arrival
	// (transactions queued plus the one in service, including the
	// arrival itself): 1 means the server was always idle on arrival,
	// > 1 means transactions waited. Zero until TrackDepth is enabled.
	MaxDepth int
}

// TrackDepth enables exact queue-depth accounting with a ring of capacity
// entries, allocated on the first tracked arrival. If more than capacity
// transactions are ever in the system at once the count saturates (the
// oldest entry is retired early); timing is unaffected. Calling TrackDepth
// again resizes and clears the ring.
func (s *Server) TrackDepth(capacity int) {
	if capacity <= 0 {
		panic("sim: TrackDepth needs a positive capacity")
	}
	s.ringCap = capacity
	s.ends = nil
	s.head, s.n = 0, 0
}

// Acquire reserves the server for occ cycles for a transaction arriving at
// time now. It returns the time service starts; the caller's queueing delay
// is start - now.
func (s *Server) Acquire(now Time, occ Time) (start Time) {
	start = now
	if s.busyUntil > start {
		start = s.busyUntil
		s.Stalls++
	}
	s.WaitCycles += start - now
	s.BusyCycles += occ
	s.busyUntil = start + occ
	if s.Requests == 0 {
		s.first = now
	}
	s.Requests++
	if s.ringCap > 0 {
		s.trackArrival(now, start+occ)
	}
	return start
}

// trackArrival records one transaction in the depth ring: entries whose
// service ended by now have left the system and are retired first. Entries
// are pushed in nondecreasing end order (each new end is at least the
// previous busyUntil), so retiring from the head is exact.
func (s *Server) trackArrival(now, end Time) {
	if s.ends == nil {
		s.ends = make([]Time, s.ringCap)
	}
	for s.n > 0 && s.ends[s.head] <= now {
		s.head++
		if s.head == len(s.ends) {
			s.head = 0
		}
		s.n--
	}
	if s.n == len(s.ends) {
		// Ring full: saturate by retiring the oldest entry early.
		s.head++
		if s.head == len(s.ends) {
			s.head = 0
		}
		s.n--
	}
	tail := s.head + s.n
	if tail >= len(s.ends) {
		tail -= len(s.ends)
	}
	s.ends[tail] = end
	s.n++
	if s.n > s.MaxDepth {
		s.MaxDepth = s.n
	}
}

// Depth returns how many tracked transactions are in the system (queued or
// in service) as of time now. Zero when depth tracking is disabled.
func (s *Server) Depth(now Time) int {
	d := 0
	for i := 0; i < s.n; i++ {
		idx := s.head + i
		if idx >= len(s.ends) {
			idx -= len(s.ends)
		}
		if s.ends[idx] > now {
			d++
		}
	}
	return d
}

// Wait returns the queueing delay a transaction arriving at now would incur,
// without reserving the server.
func (s *Server) Wait(now Time) Time {
	if s.busyUntil > now {
		return s.busyUntil - now
	}
	return 0
}

// Reset clears the server's queue state and statistics, keeping any
// depth-tracking ring enabled.
func (s *Server) Reset() {
	ends, ringCap := s.ends, s.ringCap
	*s = Server{ends: ends, ringCap: ringCap}
}

// FirstArrival reports the arrival time of the first transaction since
// the last Reset or Seed, and whether there was one. Together with
// Residual it tells whether a run that started from an idle server
// would have gone differently from one that inherited a reservation:
// only if the inherited busy-until lies past this first arrival.
func (s *Server) FirstArrival() (Time, bool) { return s.first, s.Requests > 0 }

// Residual reports the reservation the server still holds past time t:
// its busy-until time, and the service ends of tracked transactions
// still in the system after t, oldest first, appended to ends. busy <= t
// means the server is idle from t on and nothing was appended.
func (s *Server) Residual(t Time, ends []Time) (busy Time, _ []Time) {
	if s.busyUntil <= t {
		return s.busyUntil, ends
	}
	for i := 0; i < s.n; i++ {
		idx := s.head + i
		if idx >= len(s.ends) {
			idx -= len(s.ends)
		}
		if s.ends[idx] > t {
			ends = append(ends, s.ends[idx])
		}
	}
	return s.busyUntil, ends
}

// Seed resets the server, as Reset does, and installs a reservation
// carried over from earlier work on the same resource: busy-until time
// busy and the service ends of the tracked transactions still in the
// system, oldest first (as Residual reports them). Later arrivals queue
// behind it exactly as they would have behind the original transactions.
func (s *Server) Seed(busy Time, ends []Time) {
	s.Reset()
	s.busyUntil = busy
	if s.ringCap == 0 || len(ends) == 0 {
		return
	}
	if s.ends == nil {
		s.ends = make([]Time, s.ringCap)
	}
	s.n = copy(s.ends, ends)
}

// BusyUntilTime exposes the current end of the busy period (for tests).
func (s *Server) BusyUntilTime() Time { return s.busyUntil }
