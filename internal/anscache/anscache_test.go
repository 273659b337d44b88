package anscache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestGetPutBasics(t *testing.T) {
	c := New(4, 0)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", 1)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	c.Put("a", 2) // refresh in place
	if v, _ := c.Get("a"); v.(int) != 2 {
		t.Fatalf("refreshed value = %v", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(3, 0)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	// Touch a so b becomes the least recently used.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("d", 4) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; LRU order wrong")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unexpectedly", k)
		}
	}
	// Keys reports MRU -> LRU. After the gets above: d, c, a.
	if got := c.Keys(); !reflect.DeepEqual(got, []string{"d", "c", "a"}) {
		t.Fatalf("Keys() = %v", got)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New(8, time.Minute)
	now := time.Unix(1000, 0)
	c.SetClock(func() time.Time { return now })
	c.Put("a", 1)
	now = now.Add(30 * time.Second)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	now = now.Add(31 * time.Second) // refreshed read does not extend TTL
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry survived past its TTL")
	}
	st := c.Stats()
	if st.Expirations != 1 {
		t.Fatalf("expirations = %d", st.Expirations)
	}
	if st.Entries != 0 {
		t.Fatalf("expired entry still resident: %+v", st)
	}
	// Put refreshes the admission time.
	c.Put("b", 1)
	now = now.Add(45 * time.Second)
	c.Put("b", 2)
	now = now.Add(45 * time.Second)
	if _, ok := c.Get("b"); !ok {
		t.Fatal("refreshed entry expired from its original admission time")
	}
}

func TestCounters(t *testing.T) {
	c := New(2, 0)
	c.Put("a", 1)
	c.Get("a")    // hit
	c.Get("miss") // miss
	c.Put("b", 2)
	c.Put("c", 3) // evicts a
	c.Get("a")    // miss
	c.Purge()     // drops b, c
	st := c.Stats()
	want := Stats{Hits: 1, Misses: 2, Evictions: 1, Invalidations: 2, Entries: 0}
	if st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
}

func TestDefaultCapacity(t *testing.T) {
	c := New(0, 0)
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 128 {
		t.Fatalf("default capacity = %d, want 128", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(32, time.Hour)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (w*31+i)%64)
				if _, ok := c.Get(k); !ok {
					c.Put(k, i)
				}
				if i%100 == 0 {
					c.Purge()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}

// TestPurgeAllocatesNothing: a purge — one per write on an engine with a
// cache — clears the map it has rather than making another, so purging a
// filled cache allocates nothing, and the cache works as before after it.
func TestPurgeAllocatesNothing(t *testing.T) {
	caches := make([]*Cache, 11) // AllocsPerRun's warm-up call and ten measured
	for i := range caches {
		caches[i] = New(256, 0)
		for k := 0; k < 256; k++ {
			caches[i].Put(fmt.Sprintf("k%d", k), k)
		}
	}
	next := 0
	if allocs := testing.AllocsPerRun(10, func() { caches[next].Purge(); next++ }); allocs != 0 {
		t.Fatalf("Purge of a filled cache allocated %v times", allocs)
	}
	c := caches[0]
	if c.Len() != 0 || c.Stats().Invalidations != 256 {
		t.Fatalf("after Purge: %d entries, %d invalidations", c.Len(), c.Stats().Invalidations)
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("a purged entry is still there")
	}
	c.Put("k1", 1)
	if v, ok := c.Get("k1"); !ok || v.(int) != 1 {
		t.Fatalf("Get after Purge and Put = %v, %v", v, ok)
	}
}
