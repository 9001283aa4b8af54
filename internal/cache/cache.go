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
	"sync"

	"specrt/internal/abits"
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
	if c.LineBytes%abits.WordBytes != 0 {
		return fmt.Errorf("cache: line %d not a multiple of word size", c.LineBytes)
	}
	return nil
}

// Line is one cache frame. Tag is the line-aligned base address of the
// resident line (meaningful only when State != Invalid).
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
// its frame is being overwritten); slabs are recycled across machines
// via a pool, so steady-state simulation does no per-line allocation.
type Cache struct {
	cfg     Config
	sets    int
	lines   []Line
	wpl     int // access-bit words per line
	slab    []abits.Word
	scratch []abits.Word // last window of the slab
	Stats   Stats

	// slabBox and frames are the pool boxes the slab and the frame array
	// came in; Release puts the same boxes back, so it allocates nothing.
	slabBox *[]abits.Word
	frames  *frameSet

	// pow2/lineShift/setMask strength-reduce the set-index computation
	// when both the line size and the set count are powers of two (the
	// §5.1 geometries always are): the generic divide-and-modulo by
	// non-constant divisors showed up as one of the hottest instructions
	// in the whole simulator, on every Lookup.
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

// frameSet is the pooled frame array of a cache together with its
// occupancy bitmap.
type frameSet struct {
	lines []Line
	used  []uint64
}

// slabPool recycles access-bit slabs between cache instances, keyed by
// slab length (pointer-boxed so Put does not allocate). linePool does
// the same for the frame arrays, keyed by set count. A mutex-guarded
// plain map is used rather than sync.Map so the int key is not boxed on
// every lookup.
var (
	poolMu   sync.Mutex
	slabPool = map[int]*sync.Pool{}
	linePool = map[int]*sync.Pool{}
)

func poolFor(m map[int]*sync.Pool, size int) *sync.Pool {
	poolMu.Lock()
	p := m[size]
	if p == nil {
		p = &sync.Pool{}
		m[size] = p
	}
	poolMu.Unlock()
	return p
}

func getSlab(size int) *[]abits.Word {
	if v := poolFor(slabPool, size).Get(); v != nil {
		return v.(*[]abits.Word)
	}
	slab := make([]abits.Word, size)
	return &slab
}

// getFrames returns an all-Invalid frame array with an empty occupancy
// bitmap. Pooled arrays are already zeroed: Release clears exactly the
// frames the bitmap covers, which is every frame that has held a line
// since the last FlushAll (frames invalidated individually are zeroed at
// that point), so a full clear — 320 KB per L2 per execution — is not
// needed here.
func getFrames(sets int) *frameSet {
	if v := poolFor(linePool, sets).Get(); v != nil {
		return v.(*frameSet)
	}
	return &frameSet{lines: make([]Line, sets), used: make([]uint64, (sets+63)/64)}
}

// New builds a cache; it panics on invalid configuration (a programming
// error, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.SizeBytes / cfg.LineBytes
	wpl := abits.WordsPerLine(cfg.LineBytes)
	slabBox := getSlab((sets + 1) * wpl)
	slab := *slabBox
	frames := getFrames(sets)
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		lines:   frames.lines,
		used:    frames.used,
		wpl:     wpl,
		slab:    slab,
		scratch: slab[sets*wpl : (sets+1)*wpl : (sets+1)*wpl],
		slabBox: slabBox,
		frames:  frames,
	}
	if cfg.LineBytes&(cfg.LineBytes-1) == 0 && sets&(sets-1) == 0 {
		c.pow2 = true
		c.lineShift = uint64(bits.TrailingZeros64(uint64(cfg.LineBytes)))
		c.setMask = uint64(sets - 1)
	}
	return c
}

// window returns frame i's slice of the slab, capped so appends cannot
// spill into the neighbouring frame's words.
func (c *Cache) window(i int) []abits.Word {
	return c.slab[i*c.wpl : (i+1)*c.wpl : (i+1)*c.wpl]
}

// Release returns the cache's slab and frame array to their pools. The
// cache must not be used afterwards; call it once the owning machine is
// done simulating.
func (c *Cache) Release() {
	if c.slab == nil {
		return
	}
	// Restore the pooled-array invariant (see getFrames): zero every
	// frame touched since the last FlushAll; the rest are already zero.
	c.eachUsed(func(fr *Line) { *fr = Line{} })
	clear(c.used)
	poolFor(linePool, c.sets).Put(c.frames)
	poolFor(slabPool, len(c.slab)).Put(c.slabBox)
	c.lines, c.used, c.frames = nil, nil, nil
	c.slab, c.scratch, c.slabBox = nil, nil, nil
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
	return int(uint64(line) / uint64(c.cfg.LineBytes) % uint64(c.sets))
}

// Lookup returns the frame holding the line containing a, or nil on miss.
// It does not update statistics; callers record hit/miss once per access.
func (c *Cache) Lookup(a mem.Addr) *Line {
	line := c.LineAddr(a)
	fr := &c.lines[c.set(line)]
	if fr.State != Invalid && fr.Tag == line {
		return fr
	}
	return nil
}

// SetOccupant returns the frame a's set currently holds, whatever line
// it caches, or nil when the frame is empty. It is a classify-without-
// performing probe: the execution fast path asks what Install would
// displace before deciding whether an access is locally deterministic,
// without touching statistics or state.
func (c *Cache) SetOccupant(a mem.Addr) *Line {
	fr := &c.lines[c.set(c.LineAddr(a))]
	if fr.State == Invalid {
		return nil
	}
	return fr
}

// Probe is Lookup plus hit/miss accounting.
func (c *Cache) Probe(a mem.Addr) *Line {
	fr := c.Lookup(a)
	if fr != nil {
		c.Stats.Hits++
	} else {
		c.Stats.Misses++
	}
	return fr
}

// Install places the line containing a into its frame with the given state
// and access bits (bits may be nil for a plain line; a zeroed bit array is
// allocated lazily when first needed). If a different line occupied the
// frame it is returned as the victim.
func (c *Cache) Install(a mem.Addr, st State, bits []abits.Word) (victim Line, evicted bool) {
	line := c.LineAddr(a)
	set := c.set(line)
	fr := &c.lines[set]
	if fr.State != Invalid && fr.Tag != line {
		victim, evicted = *fr, true
		if victim.Bits != nil {
			// The victim's Bits alias this frame's slab window, which the
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
	if fr.State == Invalid {
		c.used[set>>6] |= 1 << (set & 63)
	}
	fr.Tag = line
	fr.State = st
	if bits != nil {
		if len(bits) != c.wpl {
			panic(fmt.Sprintf("cache: bits len %d, want %d", len(bits), c.wpl))
		}
		w := c.window(set)
		copy(w, bits)
		fr.Bits = w
	} else {
		fr.Bits = nil
	}
	return victim, evicted
}

// EnsureBits returns the line's access-bit window, zeroing it if the
// line was installed without bits.
func (c *Cache) EnsureBits(fr *Line) []abits.Word {
	if fr.Bits == nil {
		w := c.window(c.set(fr.Tag))
		clear(w)
		fr.Bits = w
	}
	return fr.Bits
}

// SetBits overwrites the line's access bits with a copy of bits,
// claiming the frame's slab window if the line had none. It replaces
// the fresh-slice append idiom the map era needed.
func (c *Cache) SetBits(fr *Line, bits []abits.Word) {
	if len(bits) != c.wpl {
		panic(fmt.Sprintf("cache: bits len %d, want %d", len(bits), c.wpl))
	}
	if fr.Bits == nil {
		fr.Bits = c.window(c.set(fr.Tag))
	}
	copy(fr.Bits, bits)
}

// Invalidate removes the line containing a if present, returning its prior
// contents (needed for writebacks carrying access bits).
func (c *Cache) Invalidate(a mem.Addr) (old Line, ok bool) {
	line := c.LineAddr(a)
	fr := &c.lines[c.set(line)]
	if fr.State == Invalid || fr.Tag != line {
		return Line{}, false
	}
	old = *fr
	*fr = Line{}
	return old, true
}

// Downgrade moves the line containing a from Dirty to Clean, returning its
// prior contents so the caller can write data and bits back to memory.
func (c *Cache) Downgrade(a mem.Addr) (old Line, ok bool) {
	line := c.LineAddr(a)
	fr := &c.lines[c.set(line)]
	if fr.State == Invalid || fr.Tag != line {
		return Line{}, false
	}
	old = *fr
	fr.State = Clean
	return old, true
}

// eachUsed calls fn for the frame of every set marked in the occupancy
// bitmap, in ascending set order, so sparse walks observe frames in the
// same order a full scan would. Marked frames may have been invalidated
// since; callers check State.
func (c *Cache) eachUsed(fn func(fr *Line)) {
	for w, word := range c.used {
		for word != 0 {
			fn(&c.lines[w<<6|bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
}

// FlushAll invalidates every line, invoking cb for each dirty line so the
// caller can model the writeback. Used between loop executions (§5.2: "we
// flush the caches after every execution").
func (c *Cache) FlushAll(cb func(Line)) {
	c.Stats.Flushes++
	c.eachUsed(func(fr *Line) {
		if fr.State == Dirty && cb != nil {
			cb(*fr)
		}
		*fr = Line{}
	})
	clear(c.used)
}

// ClearBits applies the hardware reset line to the access bits of every
// resident line for which keep returns true (§4.1: qualified reset of tags
// of lines holding privatized data, or a general reset with keep == nil).
// mutate receives each word and returns its cleared value.
func (c *Cache) ClearBits(keep func(line mem.Addr) bool, mutate func(abits.Word) abits.Word) {
	c.eachUsed(func(fr *Line) {
		if fr.State == Invalid || fr.Bits == nil {
			return
		}
		if keep != nil && !keep(fr.Tag) {
			return
		}
		for j := range fr.Bits {
			fr.Bits[j] = mutate(fr.Bits[j])
		}
	})
}

// ForEach calls fn for every valid (non-Invalid) frame, in frame order.
// The Line is passed by value; fn must not retain its Bits slice. Used by
// invariant checkers to audit cache/directory agreement.
func (c *Cache) ForEach(fn func(Line)) {
	c.eachUsed(func(fr *Line) {
		if fr.State != Invalid {
			fn(*fr)
		}
	})
}

// Lines returns the number of frames (for tests and occupancy inspection).
func (c *Cache) Lines() int { return c.sets }

// Resident reports whether the line containing a is cached in any state.
func (c *Cache) Resident(a mem.Addr) bool { return c.Lookup(a) != nil }
