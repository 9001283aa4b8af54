package freelist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestListLIFOAndAccounting(t *testing.T) {
	var l List[int]
	if _, ok := l.Get(); ok {
		t.Fatal("empty list returned a value")
	}
	h0 := held.Load()
	l.Put(1, 100)
	l.Put(2, 50)
	if got := held.Load() - h0; got != 150 {
		t.Fatalf("held %d bytes, want 150", got)
	}
	if v, ok := l.Get(); !ok || v != 2 {
		t.Fatalf("Get = %d, %t; want the last Put, 2", v, ok)
	}
	if v, _ := l.Get(); v != 1 || held.Load() != h0 {
		t.Fatalf("Get = %d, held %d; want 1, %d", v, held.Load(), h0)
	}
}

// TestListSurvivesCollection is the property the package exists for.
func TestListSurvivesCollection(t *testing.T) {
	var l List[*[64]byte]
	l.Put(new([64]byte), 64)
	runtime.GC()
	runtime.GC()
	if _, ok := l.Get(); !ok {
		t.Fatal("a collection emptied the list")
	}
}

func TestKeyedSeparatesKeys(t *testing.T) {
	var k Keyed[int, string]
	k.For(1).Put("one", 1)
	if _, ok := k.For(2).Get(); ok {
		t.Fatal("key 2 returned key 1's value")
	}
	if k.For(1) != k.For(1) {
		t.Fatal("For returned two lists for one key")
	}
	if v, ok := k.For(1).Get(); !ok || v != "one" {
		t.Fatalf("Get = %q, %t", v, ok)
	}
}

// TestBudgetUnderConcurrency has goroutines Put and Get on shared lists
// with values large enough that the budget must refuse some Puts: the
// retained bytes never exceed Budget, refused values are not kept, and
// draining the lists returns every reserved byte.
func TestBudgetUnderConcurrency(t *testing.T) {
	const workers, rounds, size = 8, 2000, Budget / 16
	h0 := held.Load()
	var refused atomic.Int64
	var lists [3]List[int]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l := &lists[(w+i)%len(lists)]
				if i%3 == 2 {
					l.Get()
				} else if !l.Put(i, size) {
					refused.Add(1)
				}
				if h := held.Load(); h > Budget {
					t.Errorf("held %d bytes, budget %d", h, Budget)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if refused.Load() == 0 {
		t.Fatal("the budget never refused a Put")
	}
	kept := 0
	for i := range lists {
		for {
			if _, ok := lists[i].Get(); !ok {
				break
			}
			kept++
		}
	}
	if int64(kept)*size > Budget-h0 {
		t.Errorf("lists kept %d values of %d bytes, over the %d-byte budget", kept, size, Budget-h0)
	}
	if held.Load() != h0 {
		t.Errorf("held %d bytes after draining, want %d", held.Load(), h0)
	}
}
