// Package arena provides preallocated, epoch-tagged metadata tables.
//
// The simulator knows every array's element range and the machine's line
// address space at session setup, so speculation metadata never needs a
// hash map: it lives in flat slices indexed by dense element or line
// index. What it does need is a cheap way to wipe that metadata between
// iterations of the experiment loop (Arm/Disarm cycles, ablation cells,
// fuzz replays). The types here make Reset O(1) by tagging each slot
// with the epoch that last wrote it: a slot whose tag differs from the
// current epoch reads as the default value, and Reset just increments
// the epoch. No reallocation, no O(n) clear on the hot path.
package arena

import "math/bits"

// LineIndex translates a line-aligned address into a dense line index
// for the given power-of-two line size. It is the addr→index map used
// by the dense directory table and any per-line slab.
func LineIndex(addr uint64, lineShift uint) int { return int(addr >> lineShift) }

// I32 is a flat int32 table with an epoch-tagged O(1) Reset. Slots not
// written since the last Reset read as the default value.
type I32 struct {
	v   []int32
	tag []uint32
	cur uint32
	def int32
}

// NewI32 returns a table of n slots, all reading as def.
func NewI32(n int, def int32) *I32 {
	return &I32{v: make([]int32, n), tag: make([]uint32, n), cur: 1, def: def}
}

// Len returns the number of slots.
func (s *I32) Len() int { return len(s.v) }

// Get returns slot i, or the default if it was not set this epoch.
func (s *I32) Get(i int) int32 {
	if s.tag[i] != s.cur {
		return s.def
	}
	return s.v[i]
}

// Set writes slot i for the current epoch.
func (s *I32) Set(i int, x int32) {
	s.v[i] = x
	s.tag[i] = s.cur
}

// Reset invalidates every slot in O(1) by advancing the epoch.
func (s *I32) Reset() {
	s.cur++
	if s.cur == 0 { // epoch counter wrapped: stale tags could alias
		clear(s.tag)
		s.cur = 1
	}
}

// I64 is I32's wide sibling: a flat int64 table with an epoch-tagged
// O(1) Reset, for accumulators that outgrow 31 bits (cycle counts,
// copy-out volumes in the policy history table).
type I64 struct {
	v   []int64
	tag []uint32
	cur uint32
	def int64
}

// NewI64 returns a table of n slots, all reading as def.
func NewI64(n int, def int64) *I64 {
	return &I64{v: make([]int64, n), tag: make([]uint32, n), cur: 1, def: def}
}

// Len returns the number of slots.
func (s *I64) Len() int { return len(s.v) }

// Get returns slot i, or the default if it was not set this epoch.
func (s *I64) Get(i int) int64 {
	if s.tag[i] != s.cur {
		return s.def
	}
	return s.v[i]
}

// Set writes slot i for the current epoch.
func (s *I64) Set(i int, x int64) {
	s.v[i] = x
	s.tag[i] = s.cur
}

// Reset invalidates every slot in O(1) by advancing the epoch.
func (s *I64) Reset() {
	s.cur++
	if s.cur == 0 {
		clear(s.tag)
		s.cur = 1
	}
}

// Bits is a flat bitset with an epoch-tagged O(1) Reset. The epoch tag
// is kept per 64-bit word, so Set lazily zeroes at most one word.
type Bits struct {
	w   []uint64
	tag []uint32
	cur uint32
}

// NewBits returns a bitset of n bits, all clear.
func NewBits(n int) *Bits {
	words := (n + 63) / 64
	return &Bits{w: make([]uint64, words), tag: make([]uint32, words), cur: 1}
}

// Get reports whether bit i is set in the current epoch.
func (b *Bits) Get(i int) bool {
	wi := i >> 6
	return b.tag[wi] == b.cur && b.w[wi]&(1<<uint(i&63)) != 0
}

// Set sets bit i for the current epoch.
func (b *Bits) Set(i int) {
	wi := i >> 6
	if b.tag[wi] != b.cur {
		b.tag[wi] = b.cur
		b.w[wi] = 0
	}
	b.w[wi] |= 1 << uint(i&63)
}

// word returns word wi's live value (zero if stale this epoch).
func (b *Bits) word(wi int) uint64 {
	if b.tag[wi] != b.cur {
		return 0
	}
	return b.w[wi]
}

// ForEachRange calls fn for every set bit in [lo, hi), in increasing
// order. The scan is word-wise, so sparse ranges cost little.
func (b *Bits) ForEachRange(lo, hi int, fn func(i int)) {
	if lo < 0 {
		lo = 0
	}
	if max := len(b.w) * 64; hi > max {
		hi = max
	}
	for wi := lo >> 6; wi<<6 < hi; wi++ {
		w := b.word(wi)
		if w == 0 {
			continue
		}
		base := wi << 6
		if base < lo {
			w &^= (1 << uint(lo-base)) - 1
		}
		if base+64 > hi {
			w &= (1 << uint(hi-base)) - 1
		}
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			fn(i)
			w &= w - 1
		}
	}
}

// Count returns the number of set bits in the current epoch. The scan
// is word-wise popcount over live words only.
func (b *Bits) Count() int {
	n := 0
	for wi := range b.w {
		n += bits.OnesCount64(b.word(wi))
	}
	return n
}

// Reset clears every bit in O(1) by advancing the epoch.
func (b *Bits) Reset() {
	b.cur++
	if b.cur == 0 {
		clear(b.tag)
		b.cur = 1
	}
}

// Slabs is a bump allocator of fixed-width uint64 slabs over one growing
// buffer, with an O(1) Reset that reclaims every slab at once. Metadata
// that outgrows a single machine word (multi-word sharer sets on wide
// machines) allocates a slab per set and keeps its id; ids are dense,
// stable across buffer growth, and dead after Reset.
type Slabs struct {
	width int
	buf   []uint64
	next  int // slabs handed out since the last Reset
}

// NewSlabs returns an allocator of zeroed slabs of width words each.
func NewSlabs(width int) *Slabs {
	if width <= 0 {
		panic("arena: slab width must be positive")
	}
	return &Slabs{width: width}
}

// Width returns the slab width in words.
func (s *Slabs) Width() int { return s.width }

// Bytes returns the capacity the allocator retains, in bytes.
func (s *Slabs) Bytes() int { return 8 * cap(s.buf) }

// Live returns the number of slabs allocated since the last Reset.
func (s *Slabs) Live() int { return s.next }

// Alloc returns the id of a fresh zeroed slab.
func (s *Slabs) Alloc() int {
	id := s.next
	s.next++
	need := s.next * s.width
	if need > len(s.buf) {
		size := len(s.buf) * 2
		if size < 16*s.width {
			size = 16 * s.width
		}
		for size < need {
			size *= 2
		}
		grown := make([]uint64, size)
		copy(grown, s.buf)
		s.buf = grown
	} else {
		// Recycled region from before the last Reset: wipe just this slab.
		clear(s.buf[id*s.width : need])
	}
	return id
}

// Slab returns slab id's words. The slice aliases the backing buffer and
// is invalidated by the next Alloc (growth may move the buffer): re-fetch
// it rather than retaining it across allocations.
func (s *Slabs) Slab(id int) []uint64 {
	lo, hi := id*s.width, (id+1)*s.width
	return s.buf[lo:hi:hi]
}

// Reset reclaims every slab in O(1) by rewinding the bump pointer; the
// buffer (and its capacity) is retained for the next epoch.
func (s *Slabs) Reset() { s.next = 0 }
