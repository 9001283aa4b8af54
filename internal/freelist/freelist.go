// Package freelist recycles the simulator's large per-run buffers (cache
// frame arrays and access-bit slabs, event engines, directory tables,
// LRPD shadows, trace and instruction buffers) across runs.
//
// It replaces sync.Pool for them. A sync.Pool is emptied by garbage
// collections, and a collection is what a smaller heap triggers more
// often: every collection made the next run rebuild its machine from
// fresh allocations. A List keeps what it is given until it is taken
// again; only one process-wide byte budget bounds what all lists hold
// together, so memory stays bounded without depending on when the
// collector runs. Nothing is evicted: a value of a shape no later run
// asks for keeps its share of the budget, and once the budget is full
// further Puts are refused and their values left to the collector.
package freelist

import (
	"sync"
	"sync/atomic"
)

// Budget bounds the bytes all lists together retain. Its derivation
// from the peaks perfbench measured on a 2-core host:
// wide-scale holds at most 63 MB — 35 MB of cache frames and access bits
// of its 1024-processor machines, whose caches alone are 1024 × (128 +
// 1024) frames × 8 B + 1024 × (129 + 1025) windows × 16 B = 28 MB; 13 MB
// of instruction buffers; 11 MB of LRPD shadows and traces; 4 MB of
// engines and directory tables. paper-figures holds at most 59 MB,
// mostly SW access traces and LRPD shadows, and the service workload
// 35 MB. 96 MB is the largest peak plus half again, for hosts whose
// spare cores run more executions at once; a 4096-processor job (≈115
// MB of caches, ≈50 MB of instruction buffers) exceeds it, and its
// surplus is left to the collector.
const Budget = 96 << 20

// held is the bytes all lists together have reserved.
var held atomic.Int64

type entry[T any] struct {
	v     T
	bytes int64
}

// List is a mutex-guarded LIFO free list. The zero value is empty and
// ready to use; a List must not be copied after first use.
type List[T any] struct {
	mu    sync.Mutex
	items []entry[T]
}

// Get takes the most recently returned value, or reports false when the
// list is empty.
func (l *List[T]) Get() (v T, ok bool) {
	l.mu.Lock()
	n := len(l.items)
	if n == 0 {
		l.mu.Unlock()
		return v, false
	}
	e := l.items[n-1]
	l.items[n-1] = entry[T]{}
	l.items = l.items[:n-1]
	l.mu.Unlock()
	held.Add(-e.bytes)
	return e.v, true
}

// Put returns v, which retains about bytes of memory, to the list. When
// keeping it would take all lists past Budget it is refused instead and
// left to the collector; Put reports whether v was kept.
func (l *List[T]) Put(v T, bytes int) bool {
	n := int64(bytes)
	for {
		h := held.Load()
		if h+n > Budget {
			return false
		}
		if held.CompareAndSwap(h, h+n) {
			break
		}
	}
	l.mu.Lock()
	l.items = append(l.items, entry[T]{v, n})
	l.mu.Unlock()
	return true
}

// Keyed is a set of Lists indexed by a size class (a slab length, an
// element count), so a Get only ever returns a value of the shape its
// caller asks for. The zero value is ready to use.
type Keyed[K comparable, T any] struct {
	mu    sync.Mutex
	lists map[K]*List[T]
}

// For returns the list for key, creating it on first use.
func (k *Keyed[K, T]) For(key K) *List[T] {
	k.mu.Lock()
	l := k.lists[key]
	if l == nil {
		if k.lists == nil {
			k.lists = map[K]*List[T]{}
		}
		l = &List[T]{}
		k.lists[key] = l
	}
	k.mu.Unlock()
	return l
}
