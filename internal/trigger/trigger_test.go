package trigger

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sedna/internal/kv"
)

// memSource is a Source backed by a map of rows with explicit dirty marks.
type memSource struct {
	mu    sync.Mutex
	rows  map[kv.Key]*kv.Row
	dirty []kv.Key
}

func newMemSource() *memSource { return &memSource{rows: map[kv.Key]*kv.Row{}} }

func (s *memSource) write(key kv.Key, val string, wall int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	row := s.rows[key]
	if row == nil {
		row = &kv.Row{}
		s.rows[key] = row
	}
	// Each write observed the row it lands on, as a sequential writer's does.
	dot := kv.Dot{Node: 1, Counter: row.Clock.MaxCounter(1) + 1}
	row.ApplyCausal(kv.Versioned{Value: []byte(val), TS: kv.Timestamp{Wall: wall}, Source: "test",
		Dot: dot, Ctx: row.Clock.Clone()}, true, 0)
	s.dirty = append(s.dirty, key)
}

func (s *memSource) ScanDirty(limit int, fn func(kv.Key, *kv.Row)) int {
	s.mu.Lock()
	batch := s.dirty
	if len(batch) > limit {
		batch = batch[:limit]
		s.dirty = s.dirty[limit:]
	} else {
		s.dirty = nil
	}
	rows := make([]*kv.Row, len(batch))
	for i, k := range batch {
		rows[i] = s.rows[k].Clone()
	}
	s.mu.Unlock()
	for i, k := range batch {
		fn(k, rows[i])
	}
	return len(batch)
}

// collector is an Action recording its invocations.
type collector struct {
	mu    sync.Mutex
	calls []call
	ch    chan call
}

type call struct {
	key    kv.Key
	values []string
}

func newCollector() *collector { return &collector{ch: make(chan call, 128)} }

func (c *collector) Act(ctx context.Context, key kv.Key, values [][]byte, res *Result) error {
	vals := make([]string, len(values))
	for i, v := range values {
		vals[i] = string(v)
	}
	cl := call{key: key, values: vals}
	c.mu.Lock()
	c.calls = append(c.calls, cl)
	c.mu.Unlock()
	c.ch <- cl
	return nil
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.calls)
}

func (c *collector) wait(t *testing.T, timeout time.Duration) call {
	t.Helper()
	select {
	case cl := <-c.ch:
		return cl
	case <-time.After(timeout):
		t.Fatal("action never fired")
		return call{}
	}
}

func startEngine(t *testing.T, src *memSource, writes *sync.Map) *Engine {
	t.Helper()
	cfg := Config{
		Source:          src,
		ScanEvery:       2 * time.Millisecond,
		DefaultInterval: 5 * time.Millisecond,
		Workers:         4,
	}
	if writes != nil {
		cfg.Write = func(ctx context.Context, key kv.Key, value []byte) error {
			writes.Store(key, string(value))
			return nil
		}
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	t.Cleanup(e.Close)
	return e
}

func TestHookMatching(t *testing.T) {
	key := kv.Join("web", "pages", "url1")
	cases := []struct {
		hook Hook
		want bool
	}{
		{KeyHook(key), true},
		{KeyHook(kv.Join("web", "pages", "url2")), false},
		{TableHook("web", "pages"), true},
		{TableHook("web", "users"), false},
		{DatasetHook("web"), true},
		{DatasetHook("other"), false},
	}
	for _, c := range cases {
		if got := c.hook.Matches(key); got != c.want {
			t.Errorf("%v.Matches(%q) = %v, want %v", c.hook, key, got, c.want)
		}
	}
}

func TestBasicTriggerFires(t *testing.T) {
	src := newMemSource()
	e := startEngine(t, src, nil)
	col := newCollector()
	if _, err := e.Register(Job{
		Name:   "basic",
		Hooks:  []Hook{TableHook("ds", "tb")},
		Action: col,
	}); err != nil {
		t.Fatal(err)
	}
	src.write(kv.Join("ds", "tb", "k1"), "hello", 1)
	cl := col.wait(t, 2*time.Second)
	if cl.key != kv.Join("ds", "tb", "k1") || len(cl.values) != 1 || cl.values[0] != "hello" {
		t.Fatalf("call = %+v", cl)
	}
	if st := e.Stats(); st.Fired != 1 || st.Scanned == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTriggerIgnoresUnmatchedKeys(t *testing.T) {
	src := newMemSource()
	e := startEngine(t, src, nil)
	col := newCollector()
	e.Register(Job{Name: "scoped", Hooks: []Hook{TableHook("ds", "tb")}, Action: col})
	src.write(kv.Join("other", "tb", "k"), "x", 1)
	src.write(kv.Join("ds", "other", "k"), "x", 1)
	time.Sleep(50 * time.Millisecond)
	if col.count() != 0 {
		t.Fatalf("fired %d times for unmatched keys", col.count())
	}
}

func TestFilterGatesEvents(t *testing.T) {
	src := newMemSource()
	e := startEngine(t, src, nil)
	col := newCollector()
	// Only fire when the value grows (a stop-condition-style filter).
	e.Register(Job{
		Name:  "filtered",
		Hooks: []Hook{TableHook("ds", "tb")},
		Filter: FilterFunc(func(old, new Snapshot) bool {
			return len(new.Value) > len(old.Value)
		}),
		Action: col,
	})
	src.write(kv.Join("ds", "tb", "k"), "aa", 1)
	col.wait(t, 2*time.Second)
	// Shrinking value: filtered out.
	src.write(kv.Join("ds", "tb", "k"), "b", 2)
	time.Sleep(50 * time.Millisecond)
	if col.count() != 1 {
		t.Fatalf("fired %d times; filter leaked", col.count())
	}
	if st := e.Stats(); st.Filtered == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFilterSeesOldAndNew(t *testing.T) {
	src := newMemSource()
	e := startEngine(t, src, nil)
	col := newCollector()
	var mu sync.Mutex
	var transitions []string
	e.Register(Job{
		Name:  "oldnew",
		Hooks: []Hook{KeyHook(kv.Join("d", "t", "k"))},
		Filter: FilterFunc(func(old, new Snapshot) bool {
			mu.Lock()
			transitions = append(transitions, string(old.Value)+"->"+string(new.Value))
			mu.Unlock()
			return true
		}),
		Action:   col,
		Interval: time.Millisecond,
	})
	src.write(kv.Join("d", "t", "k"), "v1", 1)
	col.wait(t, 2*time.Second)
	src.write(kv.Join("d", "t", "k"), "v2", 2)
	col.wait(t, 2*time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(transitions) < 2 || transitions[0] != "->v1" {
		t.Fatalf("transitions = %v", transitions)
	}
	// The old side of the second transition is the previously fired value.
	last := transitions[len(transitions)-1]
	if last != "v1->v2" {
		t.Fatalf("last transition = %q, want v1->v2", last)
	}
}

func TestFlowControlCoalesces(t *testing.T) {
	src := newMemSource()
	e := startEngine(t, src, nil)
	col := newCollector()
	e.Register(Job{
		Name:     "burst",
		Hooks:    []Hook{KeyHook(kv.Join("d", "t", "hot"))},
		Action:   col,
		Interval: 80 * time.Millisecond,
	})
	// Burst of 50 writes inside one window.
	for i := 0; i < 50; i++ {
		src.write(kv.Join("d", "t", "hot"), "v", int64(i+1))
	}
	first := col.wait(t, 2*time.Second)
	_ = first
	time.Sleep(200 * time.Millisecond)
	// One firing for the initial event plus at most a couple for the
	// tail of the burst — far fewer than 50.
	if n := col.count(); n > 3 {
		t.Fatalf("fired %d times for a 50-write burst", n)
	}
	if st := e.Stats(); st.Coalesced == 0 {
		t.Fatalf("stats = %+v, expected coalescing", st)
	}
}

func TestFlowControlKeepsFreshest(t *testing.T) {
	src := newMemSource()
	e := startEngine(t, src, nil)
	col := newCollector()
	e.Register(Job{
		Name:     "fresh",
		Hooks:    []Hook{KeyHook(kv.Join("d", "t", "k"))},
		Action:   col,
		Interval: 60 * time.Millisecond,
	})
	src.write(kv.Join("d", "t", "k"), "first", 1)
	col.wait(t, 2*time.Second)
	// Three quick updates inside the window; only the freshest fires.
	src.write(kv.Join("d", "t", "k"), "a", 2)
	src.write(kv.Join("d", "t", "k"), "b", 3)
	src.write(kv.Join("d", "t", "k"), "final", 4)
	cl := col.wait(t, 2*time.Second)
	if cl.values[0] != "final" {
		t.Fatalf("fired with %q, want the freshest value", cl.values[0])
	}
}

func TestRippleSuppressionBoundsLoop(t *testing.T) {
	// A self-feeding trigger (the paper's Fig. 4 circle) must be bounded
	// by the interval, not flood the engine.
	src := newMemSource()
	var writes sync.Map
	cfg := Config{
		Source:          src,
		ScanEvery:       2 * time.Millisecond,
		DefaultInterval: 30 * time.Millisecond,
		Workers:         2,
		Write: func(ctx context.Context, key kv.Key, value []byte) error {
			writes.Store(key, string(value))
			// Feed the loop: every output dirties the monitored key.
			src.write(key, string(value)+"+", time.Now().UnixNano())
			return nil
		},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Close()
	loopKey := kv.Join("d", "t", "loop")
	e.Register(Job{
		Name:  "looper",
		Hooks: []Hook{KeyHook(loopKey)},
		Action: ActionFunc(func(ctx context.Context, key kv.Key, values [][]byte, res *Result) error {
			res.Emit(loopKey, values[0])
			return nil
		}),
	})
	src.write(loopKey, "seed", 1)
	time.Sleep(300 * time.Millisecond)
	st := e.Stats()
	// 300ms / 30ms interval => ~10 firings; allow slack but reject a storm.
	if st.Fired > 15 {
		t.Fatalf("loop fired %d times in 300ms with a 30ms interval", st.Fired)
	}
	if st.Fired < 3 {
		t.Fatalf("loop barely ran: %+v", st)
	}
}

func TestStopConditionFilterTerminatesLoop(t *testing.T) {
	// The paper's iterative-task pattern: a filter compares old and new
	// values and stops the loop at a fixed point.
	src := newMemSource()
	cfg := Config{
		Source:          src,
		ScanEvery:       2 * time.Millisecond,
		DefaultInterval: 5 * time.Millisecond,
		Workers:         2,
	}
	var engine *Engine
	var err error
	cfg.Write = func(ctx context.Context, key kv.Key, value []byte) error {
		src.write(key, string(value), time.Now().UnixNano())
		return nil
	}
	engine, err = NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine.Start()
	defer engine.Close()

	loopKey := kv.Join("d", "t", "count")
	engine.Register(Job{
		Name:  "incr-until-5",
		Hooks: []Hook{KeyHook(loopKey)},
		Filter: FilterFunc(func(old, new Snapshot) bool {
			return len(new.Value) < 5 // stop once the value is 5 bytes
		}),
		Action: ActionFunc(func(ctx context.Context, key kv.Key, values [][]byte, res *Result) error {
			res.Emit(key, append(values[0], 'x'))
			return nil
		}),
	})
	src.write(loopKey, "x", 1)
	deadline := time.Now().Add(3 * time.Second)
	for {
		src.mu.Lock()
		row := src.rows[loopKey]
		var val string
		if row != nil {
			if v, ok := row.Latest(); ok {
				val = string(v.Value)
			}
		}
		src.mu.Unlock()
		if val == "xxxxx" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("loop stuck at %q", val)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Let any stragglers run; the value must not grow past the stop point.
	time.Sleep(100 * time.Millisecond)
	src.mu.Lock()
	v, _ := src.rows[loopKey].Latest()
	src.mu.Unlock()
	if string(v.Value) != "xxxxx" {
		t.Fatalf("loop overshot the stop condition: %q", v.Value)
	}
}

func TestResultWritesApplied(t *testing.T) {
	src := newMemSource()
	var writes sync.Map
	e := startEngine(t, src, &writes)
	done := make(chan struct{}, 1)
	e.Register(Job{
		Name:  "emitter",
		Hooks: []Hook{TableHook("in", "t")},
		Action: ActionFunc(func(ctx context.Context, key kv.Key, values [][]byte, res *Result) error {
			res.Emit(kv.Join("out", "t", key.Name()), []byte("processed:"+string(values[0])))
			res.Emit(kv.Join("out", "t", key.Name()+"-copy"), values[0])
			done <- struct{}{}
			return nil
		}),
	})
	src.write(kv.Join("in", "t", "k1"), "data", 1)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("action never ran")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		v1, ok1 := writes.Load(kv.Join("out", "t", "k1"))
		_, ok2 := writes.Load(kv.Join("out", "t", "k1-copy"))
		if ok1 && ok2 {
			if v1.(string) != "processed:data" {
				t.Fatalf("output = %q", v1)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("result writes never applied")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := e.Stats(); st.ResultWrites != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestActionErrorCounted(t *testing.T) {
	src := newMemSource()
	e := startEngine(t, src, nil)
	fired := make(chan struct{}, 1)
	e.Register(Job{
		Name:  "bad",
		Hooks: []Hook{TableHook("d", "t")},
		Action: ActionFunc(func(ctx context.Context, key kv.Key, values [][]byte, res *Result) error {
			fired <- struct{}{}
			return errors.New("boom")
		}),
	})
	src.write(kv.Join("d", "t", "k"), "x", 1)
	<-fired
	deadline := time.Now().Add(time.Second)
	for e.Stats().ActionErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("action error not counted")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestActionTimeout(t *testing.T) {
	src := newMemSource()
	e := startEngine(t, src, nil)
	done := make(chan struct{}, 1)
	e.Register(Job{
		Name:          "slow",
		Hooks:         []Hook{TableHook("d", "t")},
		ActionTimeout: 20 * time.Millisecond,
		Action: ActionFunc(func(ctx context.Context, key kv.Key, values [][]byte, res *Result) error {
			<-ctx.Done()
			done <- struct{}{}
			return ctx.Err()
		}),
	})
	src.write(kv.Join("d", "t", "k"), "x", 1)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("action context never expired")
	}
}

func TestJobDeadlineUnregisters(t *testing.T) {
	src := newMemSource()
	e := startEngine(t, src, nil)
	col := newCollector()
	id, _ := e.Register(Job{
		Name:     "mortal",
		Hooks:    []Hook{TableHook("d", "t")},
		Action:   col,
		Deadline: 30 * time.Millisecond,
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		found := false
		for _, j := range e.Jobs() {
			if j == id {
				found = true
			}
		}
		if !found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job survived its deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Events after expiry do nothing.
	src.write(kv.Join("d", "t", "k"), "x", 1)
	time.Sleep(50 * time.Millisecond)
	if col.count() != 0 {
		t.Fatal("expired job fired")
	}
}

func TestUnregisterStopsJob(t *testing.T) {
	src := newMemSource()
	e := startEngine(t, src, nil)
	col := newCollector()
	id, _ := e.Register(Job{Name: "u", Hooks: []Hook{TableHook("d", "t")}, Action: col})
	src.write(kv.Join("d", "t", "k"), "x", 1)
	col.wait(t, 2*time.Second)
	e.Unregister(id)
	src.write(kv.Join("d", "t", "k"), "y", 2)
	time.Sleep(50 * time.Millisecond)
	if col.count() != 1 {
		t.Fatalf("fired %d times after unregister", col.count())
	}
}

func TestMultipleJobsSameKey(t *testing.T) {
	src := newMemSource()
	e := startEngine(t, src, nil)
	c1, c2 := newCollector(), newCollector()
	e.Register(Job{Name: "j1", Hooks: []Hook{TableHook("d", "t")}, Action: c1})
	e.Register(Job{Name: "j2", Hooks: []Hook{DatasetHook("d")}, Action: c2})
	src.write(kv.Join("d", "t", "k"), "x", 1)
	c1.wait(t, 2*time.Second)
	c2.wait(t, 2*time.Second)
}

func TestRegisterValidation(t *testing.T) {
	e, err := NewEngine(Config{Source: newMemSource()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Register(Job{Action: newCollector()}); err == nil {
		t.Fatal("job without hooks accepted")
	}
	if _, err := e.Register(Job{Hooks: []Hook{DatasetHook("d")}}); err == nil {
		t.Fatal("job without action accepted")
	}
}

func TestValueListDelivered(t *testing.T) {
	// write_all value lists reach the action in freshest-first order.
	src := newMemSource()
	e := startEngine(t, src, nil)
	col := newCollector()
	e.Register(Job{Name: "vl", Hooks: []Hook{KeyHook(kv.Join("d", "t", "k"))}, Action: col, Interval: time.Millisecond})

	src.mu.Lock()
	row := &kv.Row{}
	row.ApplyCausal(kv.Versioned{Value: []byte("old"), TS: kv.Timestamp{Wall: 1}, Source: "a", Dot: kv.Dot{Node: 1, Counter: 1}}, false, 0)
	row.ApplyCausal(kv.Versioned{Value: []byte("new"), TS: kv.Timestamp{Wall: 2}, Source: "b", Dot: kv.Dot{Node: 2, Counter: 1}}, false, 0)
	src.rows[kv.Join("d", "t", "k")] = row
	src.dirty = append(src.dirty, kv.Join("d", "t", "k"))
	src.mu.Unlock()

	cl := col.wait(t, 2*time.Second)
	if len(cl.values) != 2 || cl.values[0] != "new" || cl.values[1] != "old" {
		t.Fatalf("values = %v", cl.values)
	}
}
