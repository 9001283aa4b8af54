// Package cache models the direct-mapped primary and secondary caches of
// the simulated machine, including the per-line Access Bit Arrays the
// hardware scheme adds (Figure 10-(a) and (b)).
//
// Caches track tags and coherence state only; the simulation is
// dependence-level, so no data values are stored. Each line carries one
// access-bit word per 4 bytes, which travels with the line on fills and
// writebacks exactly as in the paper.
package cache

import (
	"fmt"
	"math/bits"

	"specrt/internal/abits"
	"specrt/internal/freelist"
	"specrt/internal/mem"
)

// State is the coherence state of a cached line.
type State uint8

const (
	Invalid State = iota
	Clean         // shared, consistent with memory
	Dirty         // exclusive, modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "INVALID"
	case Clean:
		return "CLEAN"
	case Dirty:
		return "DIRTY"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Config describes a direct-mapped cache.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line size; must divide SizeBytes
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line %d", c.SizeBytes, c.LineBytes)
	}
	if c.LineBytes < 8 {
		// A packed Frame keeps its state and flags in the tag's three
		// low bits, which only line-aligned tags of 8 or more bytes free.
		return fmt.Errorf("cache: line %d below the 8-byte minimum", c.LineBytes)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		// LineAddr aligns by masking, which needs a power of two.
		return fmt.Errorf("cache: line %d not a power of two", c.LineBytes)
	}
	return nil
}

// Frame is one stored cache frame packed into a word: the line-aligned
// tag in the high bits, the coherence state in bits 0–1 and, in bit 2,
// whether the line carries access bits. The bits themselves live in the
// cache's slab, in the window of the frame's set (Cache.Bits). Packing
// needs the three low tag bits free, hence Config's 8-byte line minimum.
// A Frame holds no pointer, so frame arrays stay out of the collector's
// scan.
type Frame struct{ w uint64 }

const (
	stateMask = 3
	hasBits   = 4
	flagBits  = 7
)

// Tag returns the line-aligned base address of the resident line
// (meaningful only when State() != Invalid).
func (f Frame) Tag() mem.Addr { return mem.Addr(f.w &^ flagBits) }

// State returns the frame's coherence state.
func (f Frame) State() State { return State(f.w & stateMask) }

// SetState changes the frame's coherence state, keeping tag and bits.
func (f *Frame) SetState(s State) { f.w = f.w&^stateMask | uint64(s) }

// Line is a by-value view of a frame: an evicted victim, the prior
// contents Invalidate and Downgrade return, and the lines FlushAll and
// ForEach visit. Bits aliases the slab window of the frame's set (or
// the cache's scratch window for a victim) and is nil when the line
// carried no access bits.
type Line struct {
	Tag   mem.Addr
	State State
	Bits  []abits.Word // one per 4-byte word of the line
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions
	Flushes    uint64
}

// Cache is a direct-mapped cache. Access-bit words for all frames live
// in one preallocated slab (one window of wpl words per frame, plus a
// trailing scratch window that carries an evicted victim's bits while
// its frame is being overwritten); frames and slab are recycled across
// machines through a free list, so steady-state simulation does no
// per-line allocation.
type Cache struct {
	cfg     Config
	sets    int
	frames  []Frame
	wpl     int // access-bit words per line
	slab    []abits.Word
	scratch []abits.Word // last window of the slab
	Stats   Stats

	// st is the free-list box frames, used and slab came in; Release
	// puts the same box back, so it allocates nothing.
	st *storage

	// lineShift/pow2/setMask strength-reduce the set-index computation
	// (lines are always a power of two; pow2 marks a power-of-two set
	// count, which the §5.1 geometries always have): the generic
	// divide-and-modulo by non-constant divisors showed up as one of the
	// hottest instructions in the whole simulator, on every Lookup.
	pow2      bool
	lineShift uint64
	setMask   uint64

	// used is an occupancy bitmap, one bit per set, marking the sets
	// that have held a valid line since the last FlushAll (set on each
	// Invalid->valid transition in Install). Whole-cache walks visit only
	// these frames — in ascending set order, so observable effects
	// (writeback callbacks, bit resets) are identical to a full frame
	// scan — instead of touching every frame of a mostly empty cache
	// between executions.
	used []uint64
}

// storage is a cache's recyclable state: the frame array, its occupancy
// bitmap and the access-bit slab.
type storage struct {
	frames []Frame
	used   []uint64
	slab   []abits.Word
}

// bytes is the storage's size; an access-bit Word is one byte.
func (st *storage) bytes() int { return 8*len(st.frames) + 8*len(st.used) + len(st.slab) }

// geometry keys the storage free lists.
type geometry struct{ sets, wpl int }

var storagePool freelist.Keyed[geometry, *storage]

// getStorage returns storage with all-Invalid frames and an empty
// occupancy bitmap. Recycled storage is already in that state: Release
// clears exactly the frames the bitmap covers, which is every frame that
// has held a line since the last FlushAll (frames invalidated
// individually are zeroed at that point), so a full clear is not needed.
func getStorage(sets, wpl int) *storage {
	if st, ok := storagePool.For(geometry{sets, wpl}).Get(); ok {
		return st
	}
	return &storage{
		frames: make([]Frame, sets),
		used:   make([]uint64, (sets+63)/64),
		slab:   make([]abits.Word, (sets+1)*wpl),
	}
}

// New builds a cache; it panics on invalid configuration (a programming
// error, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.SizeBytes / cfg.LineBytes
	wpl := abits.WordsPerLine(cfg.LineBytes)
	st := getStorage(sets, wpl)
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		frames:  st.frames,
		used:    st.used,
		wpl:     wpl,
		slab:    st.slab,
		scratch: st.slab[sets*wpl : (sets+1)*wpl : (sets+1)*wpl],
		st:      st,
		// Validate guarantees a power-of-two line.
		lineShift: uint64(bits.TrailingZeros64(uint64(cfg.LineBytes))),
	}
	if sets&(sets-1) == 0 {
		c.pow2 = true
		c.setMask = uint64(sets - 1)
	}
	return c
}

// window returns set i's slice of the slab, capped so appends cannot
// spill into the neighbouring set's words.
func (c *Cache) window(i int) []abits.Word {
	return c.slab[i*c.wpl : (i+1)*c.wpl : (i+1)*c.wpl]
}

// Release returns the cache's frames and slab to the free list. The
// cache must not be used afterwards; call it once the owning machine is
// done simulating.
func (c *Cache) Release() {
	if c.st == nil {
		return
	}
	// Restore the recycled-storage invariant (see getStorage): zero every
	// frame touched since the last FlushAll; the rest are already zero.
	c.eachUsed(func(_ int, fr *Frame) { *fr = Frame{} })
	clear(c.used)
	storagePool.For(geometry{c.sets, c.wpl}).Put(c.st, c.st.bytes())
	c.frames, c.used, c.st = nil, nil, nil
	c.slab, c.scratch = nil, nil
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned base of address a.
func (c *Cache) LineAddr(a mem.Addr) mem.Addr {
	return a &^ mem.Addr(c.cfg.LineBytes-1)
}

// WordIndex returns the index of a's access-bit word within its line.
func (c *Cache) WordIndex(a mem.Addr) int {
	return int(a&mem.Addr(c.cfg.LineBytes-1)) / abits.WordBytes
}

func (c *Cache) set(line mem.Addr) int {
	if c.pow2 {
		return int(uint64(line) >> c.lineShift & c.setMask)
	}
	return int(uint64(line) >> c.lineShift % uint64(c.sets))
}

// Lookup returns the frame holding the line containing a, or nil on miss.
// It does not update statistics; callers record hit/miss once per access.
func (c *Cache) Lookup(a mem.Addr) *Frame {
	line := c.LineAddr(a)
	fr := &c.frames[c.set(line)]
	if fr.w&stateMask != 0 && fr.Tag() == line {
		return fr
	}
	return nil
}

// SetOccupant returns the frame a's set currently holds, whatever line
// it caches, or nil when the frame is empty. It is a classify-without-
// performing probe: the execution fast path asks what Install would
// displace before deciding whether an access is locally deterministic,
// without touching statistics or state.
func (c *Cache) SetOccupant(a mem.Addr) *Frame {
	fr := &c.frames[c.set(c.LineAddr(a))]
	if fr.State() == Invalid {
		return nil
	}
	return fr
}

// Probe is Lookup plus hit/miss accounting.
func (c *Cache) Probe(a mem.Addr) *Frame {
	fr := c.Lookup(a)
	if fr != nil {
		c.Stats.Hits++
	} else {
		c.Stats.Misses++
	}
	return fr
}

// view returns the by-value Line of frame f stored in set.
func (c *Cache) view(set int, f Frame) Line {
	l := Line{Tag: f.Tag(), State: f.State()}
	if f.w&hasBits != 0 {
		l.Bits = c.window(set)
	}
	return l
}

// Bits returns the access-bit window of a resident frame of this cache,
// or nil when its line was installed without bits.
func (c *Cache) Bits(fr *Frame) []abits.Word {
	if fr.w&hasBits == 0 {
		return nil
	}
	return c.window(c.set(fr.Tag()))
}

// Install places the line containing a into its frame with the given state
// and access bits (bits may be nil for a plain line; a zeroed bit array is
// claimed lazily when first needed). If a different line occupied the
// frame it is returned as the victim.
func (c *Cache) Install(a mem.Addr, st State, bits []abits.Word) (victim Line, evicted bool) {
	line := c.LineAddr(a)
	set := c.set(line)
	fr := &c.frames[set]
	if fr.State() != Invalid && fr.Tag() != line {
		victim, evicted = c.view(set, *fr), true
		if victim.Bits != nil {
			// The victim's Bits alias this set's slab window, which the
			// new line is about to overwrite; move them to the scratch
			// window. The caller consumes the victim (writeback) before
			// the next Install into this cache, so one scratch suffices.
			copy(c.scratch, victim.Bits)
			victim.Bits = c.scratch
		}
		c.Stats.Evictions++
		if victim.State == Dirty {
			c.Stats.Writebacks++
		}
	}
	if fr.State() == Invalid {
		c.used[set>>6] |= 1 << (set & 63)
	}
	fr.w = uint64(line) | uint64(st)
	if bits != nil {
		if len(bits) != c.wpl {
			panic(fmt.Sprintf("cache: bits len %d, want %d", len(bits), c.wpl))
		}
		copy(c.window(set), bits)
		fr.w |= hasBits
	}
	return victim, evicted
}

// EnsureBits returns the line's access-bit window, zeroing it if the
// line was installed without bits.
func (c *Cache) EnsureBits(fr *Frame) []abits.Word {
	w := c.window(c.set(fr.Tag()))
	if fr.w&hasBits == 0 {
		clear(w)
		fr.w |= hasBits
	}
	return w
}

// SetBits overwrites the line's access bits with a copy of bits,
// claiming the set's slab window if the line had none.
func (c *Cache) SetBits(fr *Frame, bits []abits.Word) {
	if len(bits) != c.wpl {
		panic(fmt.Sprintf("cache: bits len %d, want %d", len(bits), c.wpl))
	}
	copy(c.window(c.set(fr.Tag())), bits)
	fr.w |= hasBits
}

// Invalidate removes the line containing a if present, returning its prior
// contents (needed for writebacks carrying access bits).
func (c *Cache) Invalidate(a mem.Addr) (old Line, ok bool) {
	line := c.LineAddr(a)
	set := c.set(line)
	fr := &c.frames[set]
	if fr.State() == Invalid || fr.Tag() != line {
		return Line{}, false
	}
	old = c.view(set, *fr)
	*fr = Frame{}
	return old, true
}

// Downgrade moves the line containing a from Dirty to Clean, returning its
// prior contents so the caller can write data and bits back to memory.
func (c *Cache) Downgrade(a mem.Addr) (old Line, ok bool) {
	line := c.LineAddr(a)
	set := c.set(line)
	fr := &c.frames[set]
	if fr.State() == Invalid || fr.Tag() != line {
		return Line{}, false
	}
	old = c.view(set, *fr)
	fr.SetState(Clean)
	return old, true
}

// eachUsed calls fn for the frame of every set marked in the occupancy
// bitmap, in ascending set order, so sparse walks observe frames in the
// same order a full scan would. Marked frames may have been invalidated
// since; callers check State.
func (c *Cache) eachUsed(fn func(set int, fr *Frame)) {
	for w, word := range c.used {
		for word != 0 {
			set := w<<6 | bits.TrailingZeros64(word)
			fn(set, &c.frames[set])
			word &= word - 1
		}
	}
}

// FlushAll invalidates every line, invoking cb for each dirty line so the
// caller can model the writeback. Used between loop executions (§5.2: "we
// flush the caches after every execution").
func (c *Cache) FlushAll(cb func(Line)) {
	c.Stats.Flushes++
	c.eachUsed(func(set int, fr *Frame) {
		if fr.State() == Dirty && cb != nil {
			cb(c.view(set, *fr))
		}
		*fr = Frame{}
	})
	clear(c.used)
}

// ClearBits applies the hardware reset line to the access bits of every
// resident line for which keep returns true (§4.1: qualified reset of tags
// of lines holding privatized data, or a general reset with keep == nil).
// mutate receives each word and returns its cleared value.
func (c *Cache) ClearBits(keep func(line mem.Addr) bool, mutate func(abits.Word) abits.Word) {
	c.eachUsed(func(set int, fr *Frame) {
		if fr.State() == Invalid || fr.w&hasBits == 0 {
			return
		}
		if keep != nil && !keep(fr.Tag()) {
			return
		}
		w := c.window(set)
		for j := range w {
			w[j] = mutate(w[j])
		}
	})
}

// ForEach calls fn for every valid (non-Invalid) frame, in frame order.
// The Line is passed by value; fn must not retain its Bits slice. Used by
// invariant checkers to audit cache/directory agreement.
func (c *Cache) ForEach(fn func(Line)) {
	c.eachUsed(func(set int, fr *Frame) {
		if fr.State() != Invalid {
			fn(c.view(set, *fr))
		}
	})
}

// Lines returns the number of frames (for tests and occupancy inspection).
func (c *Cache) Lines() int { return c.sets }

// Resident reports whether the line containing a is cached in any state.
func (c *Cache) Resident(a mem.Addr) bool { return c.Lookup(a) != nil }
