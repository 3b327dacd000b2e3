package memstore

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTest(limit int64) *Store {
	return New(Config{MemoryLimit: limit, Shards: 4})
}

func TestSetGet(t *testing.T) {
	s := newTest(0)
	if err := s.Set("k", []byte("v"), 7, 0); err != nil {
		t.Fatal(err)
	}
	it, ok := s.Get("k")
	if !ok || string(it.Value) != "v" || it.Flags != 7 {
		t.Fatalf("Get = %+v, %v", it, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key found")
	}
}

func TestSetOverwrite(t *testing.T) {
	s := newTest(0)
	s.Set("k", []byte("v1"), 0, 0)
	s.Set("k", []byte("v2"), 0, 0)
	it, _ := s.Get("k")
	if string(it.Value) != "v2" {
		t.Fatalf("value = %q", it.Value)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestCASChangesOnEveryWrite(t *testing.T) {
	s := newTest(0)
	s.Set("k", []byte("a"), 0, 0)
	a, _ := s.Get("k")
	s.Set("k", []byte("b"), 0, 0)
	b, _ := s.Get("k")
	if a.CAS == b.CAS {
		t.Fatal("CAS did not change across writes")
	}
}

func TestDelete(t *testing.T) {
	s := newTest(0)
	s.Set("k", []byte("v"), 0, 0)
	if !s.Delete("k") {
		t.Fatal("delete reported absent")
	}
	if s.Delete("k") {
		t.Fatal("second delete reported present")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("deleted key readable")
	}
	if s.Len() != 0 || s.BytesUsed() != 0 {
		t.Fatalf("Len=%d Bytes=%d after delete", s.Len(), s.BytesUsed())
	}
}

func TestTTLExpiry(t *testing.T) {
	var now int64 = 1000
	s := New(Config{Shards: 1, Now: func() int64 { return now }})
	s.Set("k", []byte("v"), 0, time.Duration(50))
	if _, ok := s.Get("k"); !ok {
		t.Fatal("fresh key missing")
	}
	now = 1051
	if _, ok := s.Get("k"); ok {
		t.Fatal("expired key readable")
	}
	if st := s.Stats(); st.Expired == 0 {
		t.Fatal("expiry not counted")
	}
}

func TestSetOnExpiredKeyActsAsInsert(t *testing.T) {
	var now int64 = 0
	s := New(Config{Shards: 1, Now: func() int64 { return now }})
	s.Set("k", []byte("v"), 0, time.Duration(10))
	now = 11
	if err := s.Set("k", []byte("w"), 0, 0); err != nil {
		t.Fatalf("Set after expiry = %v", err)
	}
	it, ok := s.Get("k")
	if !ok || string(it.Value) != "w" || it.Expire != 0 {
		t.Fatalf("item = %+v, %v", it, ok)
	}
	if st := s.Stats(); st.Expired != 1 || st.Items != 1 {
		t.Fatalf("expired=%d items=%d, want 1/1", st.Expired, st.Items)
	}
}

func TestUpdateInsertModifyDelete(t *testing.T) {
	s := newTest(0)
	// Insert via Update.
	err := s.Update("k", func(old []byte, ok bool) ([]byte, bool) {
		if ok {
			t.Fatal("unexpected existing value")
		}
		return []byte("v1"), true
	})
	if err != nil {
		t.Fatal(err)
	}
	// Modify.
	err = s.Update("k", func(old []byte, ok bool) ([]byte, bool) {
		if !ok || string(old) != "v1" {
			t.Fatalf("old = %q, %v", old, ok)
		}
		return append(append([]byte(nil), old...), '2'), true
	})
	if err != nil {
		t.Fatal(err)
	}
	it, _ := s.Get("k")
	if string(it.Value) != "v12" {
		t.Fatalf("value = %q", it.Value)
	}
	// Delete via keep=false.
	if err := s.Update("k", func([]byte, bool) ([]byte, bool) { return nil, false }); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("key survived Update delete")
	}
	// Delete of absent key is a no-op.
	if err := s.Update("k", func([]byte, bool) ([]byte, bool) { return nil, false }); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateGrowsAcrossSlabClasses(t *testing.T) {
	s := newTest(0)
	s.Set("k", []byte("small"), 3, 0)
	big := make([]byte, 4096)
	if err := s.Update("k", func([]byte, bool) ([]byte, bool) { return big, true }); err != nil {
		t.Fatal(err)
	}
	it, ok := s.Get("k")
	if !ok || len(it.Value) != 4096 {
		t.Fatalf("len = %d, ok=%v", len(it.Value), ok)
	}
	if it.Flags != 3 {
		t.Fatal("flags lost across class migration")
	}
}

func TestTooLargeRejected(t *testing.T) {
	s := newTest(0)
	if err := s.Set("k", make([]byte, PageSize+1), 0, 0); err != ErrTooLarge {
		t.Fatalf("oversized set = %v", err)
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	// One shard with a budget of exactly one page; small equal-size items
	// land in one class so the LRU within the class decides eviction.
	s := New(Config{MemoryLimit: PageSize, Shards: 1})
	val := make([]byte, 80) // class fits (80 + key + overhead)
	perPage := PageSize / chunkClasses()[newSlabArena(PageSize).classFor(80+8+itemOverhead)]
	n := perPage + 10
	for i := 0; i < n; i++ {
		if err := s.Set(fmt.Sprintf("key-%04d", i), val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions != uint64(n-perPage) {
		t.Fatalf("evictions = %d, want %d", st.Evictions, n-perPage)
	}
	// The oldest keys were evicted; the newest remain.
	if _, ok := s.Get("key-0000"); ok {
		t.Fatal("oldest key survived")
	}
	if _, ok := s.Get(fmt.Sprintf("key-%04d", n-1)); !ok {
		t.Fatal("newest key evicted")
	}
}

func TestEvictionRespectsRecentUse(t *testing.T) {
	s := New(Config{MemoryLimit: PageSize, Shards: 1})
	val := make([]byte, 80)
	perPage := PageSize / chunkClasses()[newSlabArena(PageSize).classFor(80+8+itemOverhead)]
	for i := 0; i < perPage; i++ {
		s.Set(fmt.Sprintf("key-%04d", i), val, 0, 0)
	}
	// Touch key-0000 so it becomes MRU, then overflow by one.
	if _, ok := s.Get("key-0000"); !ok {
		t.Fatal("setup failed")
	}
	s.Set("overflow", val, 0, 0)
	if _, ok := s.Get("key-0000"); !ok {
		t.Fatal("recently used key was evicted")
	}
	if _, ok := s.Get("key-0001"); ok {
		t.Fatal("LRU key survived overflow")
	}
}

func TestRangeVisitsLiveItems(t *testing.T) {
	var now int64 = 0
	s := New(Config{Shards: 4, Now: func() int64 { return now }})
	for i := 0; i < 50; i++ {
		s.Set(fmt.Sprintf("k%02d", i), []byte{byte(i)}, 0, 0)
	}
	s.Set("dying", []byte("x"), 0, time.Duration(5))
	now = 6
	seen := map[string]bool{}
	s.Range(func(key string, it Item) bool {
		seen[key] = true
		return true
	})
	if len(seen) != 50 {
		t.Fatalf("visited %d items, want 50", len(seen))
	}
	if seen["dying"] {
		t.Fatal("expired item visited")
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := newTest(0)
	for i := 0; i < 50; i++ {
		s.Set(fmt.Sprintf("k%02d", i), []byte("v"), 0, 0)
	}
	n := 0
	s.Range(func(string, Item) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("visited %d, want 10", n)
	}
}

func TestStatsCounters(t *testing.T) {
	s := newTest(0)
	s.Set("a", []byte("1"), 0, 0)
	s.Get("a")
	s.Get("b")
	s.Delete("a")
	st := s.Stats()
	if st.Sets != 1 || st.Hits != 1 || st.Misses != 1 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BudgetBytes != 64<<20 {
		t.Fatalf("budget = %d", st.BudgetBytes)
	}
}

func TestSlabClassFor(t *testing.T) {
	a := newSlabArena(PageSize)
	if c := a.classFor(1); c != 0 {
		t.Fatalf("classFor(1) = %d", c)
	}
	if c := a.classFor(minChunk); c != 0 {
		t.Fatalf("classFor(min) = %d", c)
	}
	if c := a.classFor(PageSize); c != len(a.sizes)-1 {
		t.Fatalf("classFor(page) = %d", c)
	}
	if c := a.classFor(PageSize + 1); c != -1 {
		t.Fatalf("classFor(page+1) = %d", c)
	}
	// Every size maps to the smallest class that fits.
	for n := 1; n <= PageSize; n += 911 {
		c := a.classFor(n)
		if a.sizes[c] < n {
			t.Fatalf("class %d (%d) too small for %d", c, a.sizes[c], n)
		}
		if c > 0 && a.sizes[c-1] >= n {
			t.Fatalf("class %d not minimal for %d", c, n)
		}
	}
}

func TestSlabClassLadderMonotone(t *testing.T) {
	sizes := chunkClasses()
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("ladder not strictly increasing at %d: %d then %d", i, sizes[i-1], sizes[i])
		}
		if sizes[i]%8 != 0 {
			t.Fatalf("size %d not 8-aligned", sizes[i])
		}
	}
	if sizes[len(sizes)-1] != PageSize {
		t.Fatal("ladder does not end at page size")
	}
}

func TestSlabReserveRelease(t *testing.T) {
	a := newSlabArena(PageSize) // exactly one page
	c := a.classFor(100)
	per := a.classes[c].perPage
	for i := 0; i < per; i++ {
		if !a.reserve(c) {
			t.Fatalf("reserve %d/%d failed", i, per)
		}
	}
	if a.reserve(c) {
		t.Fatal("reserve beyond budget succeeded")
	}
	a.release(c)
	if !a.reserve(c) {
		t.Fatal("reserve after release failed")
	}
}

func TestHashTableResizeKeepsItems(t *testing.T) {
	h := newHashTable()
	const n = 20000 // forces several resizes
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		h.insert(&item{key: key, hash: hashKey(key)})
	}
	if h.count != n {
		t.Fatalf("count = %d", h.count)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		if h.lookup(hashKey(key), key) == nil {
			t.Fatalf("key %q lost after resize", key)
		}
	}
	// Remove half, confirm the rest.
	for i := 0; i < n; i += 2 {
		key := fmt.Sprintf("key-%d", i)
		if h.remove(hashKey(key), key) == nil {
			t.Fatalf("remove %q failed", key)
		}
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		got := h.lookup(hashKey(key), key)
		if (i%2 == 0) != (got == nil) {
			t.Fatalf("key %q presence wrong after removals", key)
		}
	}
}

func TestStoreModelProperty(t *testing.T) {
	// Model-based property test: a sequence of random ops applied to the
	// Store and to a plain map must agree (no TTLs, generous memory so no
	// evictions).
	type op struct {
		Kind uint8
		Key  uint8
		Val  []byte
	}
	f := func(ops []op) bool {
		s := New(Config{MemoryLimit: 256 << 20, Shards: 2})
		model := map[string][]byte{}
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%32)
			switch o.Kind % 4 {
			case 0: // set
				if len(o.Val) > 1<<16 {
					continue
				}
				if err := s.Set(key, o.Val, 0, 0); err != nil {
					return false
				}
				model[key] = append([]byte(nil), o.Val...)
			case 1: // get
				it, ok := s.Get(key)
				want, wok := model[key]
				if ok != wok {
					return false
				}
				if ok && string(it.Value) != string(want) {
					return false
				}
			case 2: // delete
				got := s.Delete(key)
				_, want := model[key]
				if got != want {
					return false
				}
				delete(model, key)
			case 3: // update (append a byte)
				err := s.Update(key, func(old []byte, ok bool) ([]byte, bool) {
					return append(append([]byte(nil), old...), 0x7), true
				})
				if err != nil {
					return false
				}
				model[key] = append(model[key], 0x7)
			}
		}
		if s.Len() != len(model) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	s := New(Config{MemoryLimit: 16 << 20, Shards: 8})
	const workers = 8
	const per = 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := fmt.Sprintf("k%d", (w*per+i)%500)
				switch i % 5 {
				case 0, 1:
					s.Set(key, []byte(key), 0, 0)
				case 2:
					s.Get(key)
				case 3:
					s.Update(key, func(old []byte, ok bool) ([]byte, bool) {
						return append(append([]byte(nil), old...), byte(i)), true
					})
				case 4:
					s.Delete(key)
				}
			}
		}(w)
	}
	wg.Wait()
	// Post-condition: store is still coherent.
	n := 0
	s.Range(func(string, Item) bool { n++; return true })
	if n != s.Len() {
		t.Fatalf("Range saw %d items, Len = %d", n, s.Len())
	}
}

func TestBytesAccountingInvariant(t *testing.T) {
	s := New(Config{MemoryLimit: 32 << 20, Shards: 2})
	keys := map[string]int{}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%03d", i%100)
		val := make([]byte, (i*37)%2048)
		s.Set(key, val, 0, 0)
		keys[key] = len(key) + len(val) + itemOverhead
	}
	var want int64
	for _, sz := range keys {
		want += int64(sz)
	}
	if got := s.BytesUsed(); got != want {
		t.Fatalf("BytesUsed = %d, want %d", got, want)
	}
}

func BenchmarkStoreSet(b *testing.B) {
	s := New(Config{MemoryLimit: 256 << 20})
	val := make([]byte, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Set(fmt.Sprintf("test-%016d", i%100000), val, 0, 0)
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s := New(Config{MemoryLimit: 256 << 20})
	val := make([]byte, 20)
	for i := 0; i < 100000; i++ {
		s.Set(fmt.Sprintf("test-%016d", i), val, 0, 0)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Get(fmt.Sprintf("test-%016d", i%100000))
	}
}

func BenchmarkStoreGetParallel(b *testing.B) {
	s := New(Config{MemoryLimit: 256 << 20, Shards: 32})
	val := make([]byte, 20)
	for i := 0; i < 100000; i++ {
		s.Set(fmt.Sprintf("test-%016d", i), val, 0, 0)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Get(fmt.Sprintf("test-%016d", i%100000))
			i++
		}
	})
}

func TestManySizeClassesWithinBudget(t *testing.T) {
	// Regression: with per-shard arenas, a workload whose rows grow
	// through many slab classes exhausted the per-shard page budget and
	// returned ErrOutOfMemory long before the store was full. The global
	// arena must absorb ~40 distinct classes within a 64 MiB budget.
	s := New(Config{MemoryLimit: 64 << 20, Shards: 16})
	sizes := chunkClasses()
	for i, size := range sizes {
		if size > 512<<10 {
			break // stay well under the budget in total
		}
		val := make([]byte, size-8-itemOverhead-10)
		if err := s.Set(fmt.Sprintf("class-%02d", i), val, 0, 0); err != nil {
			t.Fatalf("class %d (%d bytes): %v", i, size, err)
		}
	}
	// Everything is readable.
	for i, size := range sizes {
		if size > 512<<10 {
			break
		}
		if _, ok := s.Get(fmt.Sprintf("class-%02d", i)); !ok {
			t.Fatalf("class %d lost", i)
		}
	}
}

func TestGrowingValueMigratesClassesWithoutLeak(t *testing.T) {
	// A single hot key rewritten with growing values walks the class
	// ladder; chunks of abandoned classes must be released (usedChunks
	// returns to zero), even though pages are never returned.
	s := New(Config{MemoryLimit: 32 << 20, Shards: 1})
	for size := 16; size <= 64<<10; size *= 2 {
		if err := s.Set("grow", make([]byte, size), 0, 0); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
	used := 0
	for _, cs := range s.SlabStats() {
		used += cs.UsedChunks
	}
	if used != 1 {
		t.Fatalf("used chunks = %d, want exactly 1 (the final value)", used)
	}
}

func BenchmarkStoreSetOwned(b *testing.B) {
	s := New(Config{MemoryLimit: 256 << 20})
	val := make([]byte, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SetOwned(fmt.Sprintf("test-%016d", i%100000), val, 0, 0)
	}
}
