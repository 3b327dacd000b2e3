package memstore

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"sedna/internal/obs"
)

// Errors returned by Store operations.
var (
	// ErrTooLarge reports an item bigger than a slab page.
	ErrTooLarge = errors.New("memstore: item exceeds page size")
	// ErrOutOfMemory reports that the item cannot fit even after evicting
	// everything in its slab class.
	ErrOutOfMemory = errors.New("memstore: out of memory")
)

// Config parameterises a Store.
type Config struct {
	// MemoryLimit is the byte budget for item storage, served from a
	// store-wide slab arena (like memcached's). Zero selects 64 MiB; the
	// paper configures each server with 4 GB.
	MemoryLimit int64
	// Shards is the number of independently locked partitions; it is
	// rounded up to a power of two. Zero selects 16.
	Shards int
	// Now supplies time in unix nanoseconds; nil selects the real clock.
	// Tests inject a fake clock to exercise expiry deterministically.
	Now func() int64
}

// Item is the public view of a stored entry.
type Item struct {
	// Value is the stored payload. It must be treated as read-only: the
	// store replaces, never mutates, values, so a returned slice is
	// stable, but writing into it corrupts the store.
	Value []byte
	// Flags is opaque caller metadata, as in the memcached protocol.
	Flags uint32
	// CAS is the entry's version; every stored change bumps it.
	CAS uint64
	// Expire is the unix-nanosecond expiry, 0 when the entry never
	// expires.
	Expire int64
}

// Stats aggregates the store's counters.
type Stats struct {
	Items       int64
	Bytes       int64
	Hits        uint64
	Misses      uint64
	Sets        uint64
	Deletes     uint64
	Evictions   uint64
	Expired     uint64
	OwnedSets   uint64
	BudgetBytes int64
}

// Store is a sharded in-memory key-value store: slab-class memory
// accounting, per-class LRU eviction and TTLs. All methods are safe for
// concurrent use.
type Store struct {
	shards []*shard
	arena  *slabArena
	mask   uint64
	now    func() int64
	casSeq atomic.Uint64

	hits      atomic.Uint64
	misses    atomic.Uint64
	sets      atomic.Uint64
	deletes   atomic.Uint64
	evictions atomic.Uint64
	expired   atomic.Uint64
	ownedSets atomic.Uint64
	budget    int64
}

type shard struct {
	mu    sync.Mutex
	store *Store
	table *hashTable
	lru   []lruList
	bytes int64
}

type lruList struct {
	head *item // most recently used
	tail *item // eviction candidate
}

// New creates a Store.
func New(cfg Config) *Store {
	if cfg.MemoryLimit <= 0 {
		cfg.MemoryLimit = 64 << 20
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	now := cfg.Now
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	budget := cfg.MemoryLimit
	if budget < PageSize {
		budget = PageSize
	}
	s := &Store{shards: make([]*shard, n), mask: uint64(n - 1), now: now, budget: cfg.MemoryLimit}
	s.arena = newSlabArena(budget)
	nClasses := len(chunkClasses())
	for i := range s.shards {
		s.shards[i] = &shard{
			store: s,
			table: newHashTable(),
			lru:   make([]lruList, nClasses),
		}
	}
	return s
}

func hashKey(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}

func (s *Store) shardFor(hash uint64) *shard { return s.shards[hash&s.mask] }

// Get returns the item stored under key. Expired entries count as misses
// and are reclaimed lazily.
func (s *Store) Get(key string) (Item, bool) {
	h := hashKey(key)
	sh := s.shardFor(h)
	sh.mu.Lock()
	it := sh.table.lookup(h, key)
	if it == nil {
		sh.mu.Unlock()
		s.misses.Add(1)
		return Item{}, false
	}
	if s.expiredLocked(sh, it) {
		sh.mu.Unlock()
		s.misses.Add(1)
		s.expired.Add(1)
		return Item{}, false
	}
	sh.touchLRU(it)
	out := Item{Value: it.value, Flags: it.flags, CAS: it.cas, Expire: it.expire}
	sh.mu.Unlock()
	s.hits.Add(1)
	return out, true
}

// expiredLocked reclaims it if expired and reports whether it did.
func (s *Store) expiredLocked(sh *shard, it *item) bool {
	if it.expire == 0 || it.expire > s.now() {
		return false
	}
	sh.dropLocked(it)
	return true
}

// Set stores value under key unconditionally. ttl of zero means no expiry.
// The value is copied; the caller keeps ownership of its slice.
func (s *Store) Set(key string, value []byte, flags uint32, ttl time.Duration) error {
	return s.store(key, value, flags, ttl, false)
}

// SetOwned stores value under key unconditionally, taking ownership of the
// value slice: the store retains it WITHOUT a defensive copy. The caller
// must not write into the slice afterwards (reading is safe — the store
// replaces, never mutates, values). This is the final hand-off of the
// zero-copy write path: wire frame → encoded row → store, one copy total.
func (s *Store) SetOwned(key string, value []byte, flags uint32, ttl time.Duration) error {
	return s.store(key, value, flags, ttl, true)
}

// cloneUnlessOwned copies value unless the caller has transferred ownership
// of the slice to the store.
func cloneUnlessOwned(value []byte, owned bool) []byte {
	if owned {
		return value
	}
	return append([]byte(nil), value...)
}

// sameSlice reports whether a and b are the identical slice (same backing
// array, same length), so replacing one with the other is a no-op.
func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func (s *Store) store(key string, value []byte, flags uint32, ttl time.Duration, owned bool) error {
	need := len(key) + len(value) + itemOverhead
	h := hashKey(key)
	sh := s.shardFor(h)
	class := s.arena.classFor(need)
	if class < 0 {
		return ErrTooLarge
	}
	var expire int64
	if ttl > 0 {
		expire = s.now() + int64(ttl)
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()

	old := sh.table.lookup(h, key)
	if old != nil && s.expiredLocked(sh, old) {
		s.expired.Add(1)
		old = nil
	}

	// Replace in place when the new value fits the same slab class.
	if old != nil && old.class == class {
		sh.bytes += int64(need - old.size())
		old.value = cloneUnlessOwned(value, owned)
		old.flags = flags
		old.expire = expire
		old.cas = s.casSeq.Add(1)
		sh.touchLRU(old)
		s.sets.Add(1)
		if owned {
			s.ownedSets.Add(1)
		}
		return nil
	}
	if old != nil {
		sh.dropLocked(old)
	}
	if err := s.reserveLocked(sh, class); err != nil {
		return err
	}
	it := &item{
		key:    key,
		value:  cloneUnlessOwned(value, owned),
		flags:  flags,
		expire: expire,
		cas:    s.casSeq.Add(1),
		class:  class,
		hash:   h,
	}
	sh.table.insert(it)
	sh.pushLRU(it)
	sh.bytes += int64(it.size())
	s.sets.Add(1)
	if owned {
		s.ownedSets.Add(1)
	}
	return nil
}

// reserveLocked obtains a chunk of the class, evicting this shard's LRU
// items of the same class as needed (memcached's policy; with the global
// arena, another shard's items of the class are out of reach by design —
// lock ordering forbids cross-shard eviction).
func (s *Store) reserveLocked(sh *shard, class int) error {
	for {
		if s.arena.reserve(class) {
			return nil
		}
		victim := sh.lru[class].tail
		if victim == nil {
			return ErrOutOfMemory
		}
		if victim.expire != 0 && victim.expire <= s.now() {
			s.expired.Add(1)
		} else {
			s.evictions.Add(1)
		}
		sh.dropLocked(victim)
	}
}

// Delete removes key and reports whether it was present.
func (s *Store) Delete(key string) bool {
	h := hashKey(key)
	sh := s.shardFor(h)
	sh.mu.Lock()
	it := sh.table.lookup(h, key)
	if it == nil || s.expiredLocked(sh, it) {
		sh.mu.Unlock()
		return false
	}
	sh.dropLocked(it)
	sh.mu.Unlock()
	s.deletes.Add(1)
	return true
}

// Update atomically transforms the value under key: fn receives the current
// value (nil, false when absent) and returns the replacement; returning ok
// false deletes the key (a no-op when it was absent). The value passed to fn
// must not be retained or modified; the returned slice is copied. Update is
// the primitive Sedna's replica path uses to apply row mutations atomically.
//
// Returning the old slice unchanged is recognised and short-circuits to a
// pure no-op: no copy, no CAS bump, no set counted.
func (s *Store) Update(key string, fn func(old []byte, ok bool) (next []byte, keep bool)) error {
	return s.update(key, fn, false)
}

// UpdateOwned is Update with ownership transfer: the slice fn returns is
// retained by the store WITHOUT a defensive copy (unless it is the old value
// itself, which short-circuits to a no-op). fn must hand back either the old
// slice or a freshly built buffer it will never write to again; the same
// read-only aliasing rules as SetOwned apply.
func (s *Store) UpdateOwned(key string, fn func(old []byte, ok bool) (next []byte, keep bool)) error {
	return s.update(key, fn, true)
}

func (s *Store) update(key string, fn func(old []byte, ok bool) (next []byte, keep bool), owned bool) error {
	h := hashKey(key)
	sh := s.shardFor(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()

	it := sh.table.lookup(h, key)
	if it != nil && s.expiredLocked(sh, it) {
		s.expired.Add(1)
		it = nil
	}
	var cur []byte
	if it != nil {
		cur = it.value
	}
	next, keep := fn(cur, it != nil)
	if !keep {
		if it != nil {
			sh.dropLocked(it)
			s.deletes.Add(1)
		}
		return nil
	}
	if it != nil && sameSlice(next, it.value) {
		sh.touchLRU(it)
		return nil
	}
	need := len(key) + len(next) + itemOverhead
	class := s.arena.classFor(need)
	if class < 0 {
		return ErrTooLarge
	}
	if it != nil && it.class == class {
		sh.bytes += int64(need - it.size())
		it.value = cloneUnlessOwned(next, owned)
		it.cas = s.casSeq.Add(1)
		sh.touchLRU(it)
		s.sets.Add(1)
		if owned {
			s.ownedSets.Add(1)
		}
		return nil
	}
	var flags uint32
	var expire int64
	if it != nil {
		flags, expire = it.flags, it.expire
		sh.dropLocked(it)
	}
	if err := s.reserveLocked(sh, class); err != nil {
		return err
	}
	ni := &item{
		key:    key,
		value:  cloneUnlessOwned(next, owned),
		flags:  flags,
		expire: expire,
		cas:    s.casSeq.Add(1),
		class:  class,
		hash:   h,
	}
	sh.table.insert(ni)
	sh.pushLRU(ni)
	sh.bytes += int64(ni.size())
	s.sets.Add(1)
	if owned {
		s.ownedSets.Add(1)
	}
	return nil
}

// Len returns the number of stored items, including not-yet-reclaimed
// expired entries.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.table.count
		sh.mu.Unlock()
	}
	return n
}

// BytesUsed returns the charged byte footprint of live items.
func (s *Store) BytesUsed() int64 {
	var n int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Sets:        s.sets.Load(),
		Deletes:     s.deletes.Load(),
		Evictions:   s.evictions.Load(),
		Expired:     s.expired.Load(),
		OwnedSets:   s.ownedSets.Load(),
		BudgetBytes: s.budget,
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Items += int64(sh.table.count)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}

// SlabStats returns the per-class slab accounting.
func (s *Store) SlabStats() []ClassStats { return s.arena.stats() }

// PublishObs mirrors the store's counters and slab occupancy into an obs
// registry under the memstore.* namespace. The store keeps its own atomic
// counters as the source of truth; callers invoke PublishObs right before
// snapshotting the registry so the exported values are current.
func (s *Store) PublishObs(r *obs.Registry) {
	if r == nil {
		return
	}
	st := s.Stats()
	r.Gauge("memstore.items").Set(st.Items)
	r.Gauge("memstore.bytes").Set(st.Bytes)
	r.Gauge("memstore.budget_bytes").Set(st.BudgetBytes)
	r.Gauge("memstore.hits").Set(int64(st.Hits))
	r.Gauge("memstore.misses").Set(int64(st.Misses))
	r.Gauge("memstore.sets").Set(int64(st.Sets))
	r.Gauge("memstore.deletes").Set(int64(st.Deletes))
	r.Gauge("memstore.evictions").Set(int64(st.Evictions))
	r.Gauge("memstore.expired").Set(int64(st.Expired))
	r.Gauge("memstore.owned_sets").Set(int64(st.OwnedSets))
	var total, used int64
	for _, cs := range s.SlabStats() {
		total += int64(cs.TotalChunks)
		used += int64(cs.UsedChunks)
	}
	r.Gauge("memstore.slab.total_chunks").Set(total)
	r.Gauge("memstore.slab.used_chunks").Set(used)
}

// Range calls fn for every live item. Each shard is visited under its lock,
// so fn must be fast and must not call back into the Store. Iteration stops
// when fn returns false. Entries expired at visit time are skipped (but not
// reclaimed). The value slice passed to fn must not be modified; it may be
// retained for reading — the store replaces, never mutates, values, so the
// slice stays stable even after the entry is overwritten or dropped.
func (s *Store) Range(fn func(key string, it Item) bool) {
	now := s.now()
	for _, sh := range s.shards {
		stop := false
		sh.mu.Lock()
		sh.table.forEach(func(it *item) bool {
			if it.expire != 0 && it.expire <= now {
				return true
			}
			if !fn(it.key, Item{Value: it.value, Flags: it.flags, CAS: it.cas, Expire: it.expire}) {
				stop = true
				return false
			}
			return true
		})
		sh.mu.Unlock()
		if stop {
			return
		}
	}
}

// --- shard helpers (callers hold sh.mu) ---

// dropLocked removes the item from the table, the LRU and the slab arena.
func (sh *shard) dropLocked(it *item) {
	sh.table.remove(it.hash, it.key)
	sh.unlinkLRU(it)
	sh.store.arena.release(it.class)
	sh.bytes -= int64(it.size())
}

func (sh *shard) pushLRU(it *item) {
	l := &sh.lru[it.class]
	it.lruPrev = nil
	it.lruNext = l.head
	if l.head != nil {
		l.head.lruPrev = it
	}
	l.head = it
	if l.tail == nil {
		l.tail = it
	}
}

func (sh *shard) unlinkLRU(it *item) {
	l := &sh.lru[it.class]
	if it.lruPrev != nil {
		it.lruPrev.lruNext = it.lruNext
	} else {
		l.head = it.lruNext
	}
	if it.lruNext != nil {
		it.lruNext.lruPrev = it.lruPrev
	} else {
		l.tail = it.lruPrev
	}
	it.lruPrev, it.lruNext = nil, nil
}

func (sh *shard) touchLRU(it *item) {
	if sh.lru[it.class].head == it {
		return
	}
	sh.unlinkLRU(it)
	sh.pushLRU(it)
}
