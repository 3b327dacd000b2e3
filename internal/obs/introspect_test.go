package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sedna/internal/wire"
)

// --- hot-key sketch ---

func TestKeySketchRanksHeavyHitters(t *testing.T) {
	s := NewKeySketch(1, 8)
	// One hot key interleaved with a long tail of one-shot keys, far more
	// distinct keys than the 8 slots.
	const hot, rounds = uint64(7777), 200
	for i := 0; i < rounds; i++ {
		s.Record(hot, 3, true, 10)
		s.Record(uint64(10000+i), 1, false, 5)
	}
	top := s.Snapshot(3)
	if len(top) != 3 {
		t.Fatalf("Snapshot(3) = %d entries", len(top))
	}
	if top[0].Hash != hot {
		t.Fatalf("hottest = %#x, want %#x (ranked: %+v)", top[0].Hash, hot, top)
	}
	// Space-Saving guarantee: count over-estimates true frequency by ≤ Err.
	if got := top[0].Count; got < rounds || got-top[0].Err > rounds {
		t.Fatalf("hottest count %d err %d, true %d", got, top[0].Err, rounds)
	}
	if top[0].Writes != top[0].Count || top[0].VNode != 3 {
		t.Fatalf("hot attribution wrong: %+v", top[0])
	}
	// Tail entries carry the inherited over-estimation bound.
	if top[2].Err == 0 {
		t.Fatalf("tail entry should carry an error bound: %+v", top[2])
	}
}

func TestKeySketchExactWithinCapacity(t *testing.T) {
	s := NewKeySketch(2, 16)
	for i := 0; i < 8; i++ {
		for j := 0; j <= i; j++ {
			s.Record(uint64(100+i), 7, true, 3)
		}
	}
	for _, e := range s.Snapshot(8) {
		want := e.Hash - 100 + 1
		if e.Count != want || e.Err != 0 {
			t.Fatalf("entry %+v: want exact count %d, err 0", e, want)
		}
		if e.Writes != want || e.Bytes != 3*want || e.VNode != 7 {
			t.Fatalf("attribution wrong: %+v", e)
		}
	}
}

func TestMergeTopK(t *testing.T) {
	a := []TopKEntry{{Hash: 1, Count: 10, Writes: 10}, {Hash: 2, Count: 5, Reads: 5}}
	b := []TopKEntry{{Hash: 2, Count: 50, Reads: 50, Err: 1}, {Hash: 3, Count: 7, Writes: 7}}
	m := MergeTopK(2, a, b)
	if len(m) != 2 || m[0].Hash != 2 || m[0].Count != 55 || m[0].Err != 1 || m[0].Reads != 55 {
		t.Fatalf("merge = %+v", m)
	}
	if m[1].Hash != 1 {
		t.Fatalf("second = %+v, want hash 1", m[1])
	}
}

func TestKeySketchConcurrent(t *testing.T) {
	s := NewKeySketch(4, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s.Record(uint64(i%200), int32(i%16), i%2 == 0, 8)
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, e := range s.Snapshot(1000) {
		total += e.Count
	}
	// Counts never get lost, only reassigned between keys on eviction.
	if total != 8*2000 {
		t.Fatalf("total count %d, want %d", total, 8*2000)
	}
}

// --- flight recorder ---

func TestFlightRecorderNewestFirstAndWrap(t *testing.T) {
	r := NewRegistry()
	n := flightRingSize + 100
	for i := 0; i < n; i++ {
		r.RecordOp(WideEvent{Op: "w", DurNs: int64(i)})
	}
	evs := r.FlightEvents(0)
	if len(evs) != flightRingSize {
		t.Fatalf("ring holds %d, want %d", len(evs), flightRingSize)
	}
	for i, ev := range evs {
		if want := int64(n - 1 - i); ev.DurNs != want {
			t.Fatalf("evs[%d].DurNs = %d, want %d (newest first)", i, ev.DurNs, want)
		}
		if ev.Wall == 0 {
			t.Fatalf("evs[%d] missing wall stamp", i)
		}
	}
	if got := r.FlightEvents(5); len(got) != 5 || got[0].DurNs != int64(n-1) {
		t.Fatalf("FlightEvents(5) = %d events, first %+v", len(got), got[0])
	}
}

func TestFlightRecorderStampsNode(t *testing.T) {
	r := NewRegistry()
	r.SetNode("n1")
	r.RecordOp(WideEvent{Op: "coord_write"})
	evs := r.FlightEvents(1)
	if len(evs) != 1 || evs[0].Node != "n1" {
		t.Fatalf("evs = %+v, want node n1", evs)
	}
}

func TestIntrospectionRecords(t *testing.T) {
	r := NewRegistry()
	r.RecordOp(WideEvent{Op: "w"})
	r.RecordKey(1, 0, true, 1)
	r.SetTenantRule(TenantRule{mode: tenantDataset})
	r.RecordTenantOp("t", true, 1, time.Millisecond, false)
	if len(r.FlightEvents(0)) != 1 || len(r.TopKeys(8)) != 1 || len(r.TenantsSnapshot()) != 1 {
		t.Fatal("a fresh registry must record ops, keys and tenants")
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.RecordOp(WideEvent{Op: "w", VNode: int32(g)})
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r.FlightEvents(0)
		}
	}()
	wg.Wait()
	<-done
	if got := len(r.FlightEvents(0)); got != flightRingSize {
		t.Fatalf("ring holds %d, want full %d", got, flightRingSize)
	}
}

// --- tenant attribution ---

func TestParseTenantRule(t *testing.T) {
	for _, spec := range []string{"", "dataset", "table", "prefix:4"} {
		if _, err := ParseTenantRule(spec); err != nil {
			t.Fatalf("ParseTenantRule(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"bogus", "prefix:", "prefix:0", "prefix:-1", "prefix:x"} {
		if _, err := ParseTenantRule(spec); err == nil {
			t.Fatalf("ParseTenantRule(%q): want error", spec)
		}
	}
}

func TestTenantRuleExtract(t *testing.T) {
	cases := []struct {
		spec, key, want string
	}{
		{"", "ds/tb/k", ""},
		{"dataset", "ds/tb/k", "ds"},
		{"dataset", "nokey", ""},
		{"dataset", "/leading", ""},
		{"table", "ds/tb/k", "ds/tb"},
		{"table", "ds/only", ""},
		{"prefix:2", "abcdef", "ab"},
		{"prefix:9", "abc", "abc"},
		{"prefix:9", "", ""},
	}
	for _, c := range cases {
		rule, err := ParseTenantRule(c.spec)
		if err != nil {
			t.Fatalf("ParseTenantRule(%q): %v", c.spec, err)
		}
		if got := rule.Extract(c.key); got != c.want {
			t.Fatalf("rule %q key %q: got %q want %q", c.spec, c.key, got, c.want)
		}
	}
}

func TestTenantCountersAndOverflow(t *testing.T) {
	r := NewRegistry()
	r.RecordTenantOp("alpha", true, 100, 2*time.Millisecond, false)
	r.RecordTenantOp("alpha", false, 50, time.Millisecond, true)
	r.RecordTenantOp("beta", true, 10, time.Millisecond, false)
	snap := r.TenantsSnapshot()
	if len(snap) != 2 || snap[0].Tenant != "alpha" {
		t.Fatalf("snapshot = %+v", snap)
	}
	a := snap[0]
	if a.Reads != 1 || a.Writes != 1 || a.Bytes != 150 || a.Errors != 1 || a.Lat.Count != 2 {
		t.Fatalf("alpha row = %+v", a)
	}
	// Cardinality cap: tenants beyond maxTenants fold into the overflow row.
	for i := 0; i < maxTenants+10; i++ {
		r.RecordTenantOp(fmt.Sprintf("tenant-%04d", i), true, 1, time.Microsecond, false)
	}
	snap = r.TenantsSnapshot()
	if len(snap) > maxTenants+1 {
		t.Fatalf("tenant table grew past the cap: %d rows", len(snap))
	}
	var overflow *TenantSnapshot
	for i := range snap {
		if snap[i].Tenant == overflowTenant {
			overflow = &snap[i]
		}
	}
	if overflow == nil || overflow.Writes == 0 {
		t.Fatalf("overflow bucket missing or empty: %+v", overflow)
	}
}

func TestMergeTenants(t *testing.T) {
	a := []TenantSnapshot{{Tenant: "x", Reads: 1, Writes: 2, Bytes: 10}}
	b := []TenantSnapshot{{Tenant: "x", Reads: 3, Bytes: 5, Errors: 1}, {Tenant: "y", Writes: 100}}
	m := MergeTenants(a, b)
	if len(m) != 2 || m[0].Tenant != "y" {
		t.Fatalf("merge = %+v, want y busiest", m)
	}
	if x := m[1]; x.Reads != 4 || x.Writes != 2 || x.Bytes != 15 || x.Errors != 1 {
		t.Fatalf("x row = %+v", x)
	}
}

// --- exemplars ---

func TestObserveOpTagsExemplarAndPinsTrace(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	tr := NewTrace("coord_write")
	r.ObserveOp(h, 5*time.Millisecond, tr)

	snap := h.Snapshot()
	if len(snap.Exemplars) != 1 {
		t.Fatalf("exemplars = %+v, want one", snap.Exemplars)
	}
	for b, id := range snap.Exemplars {
		if id != tr.ID {
			t.Fatalf("bucket %d exemplar %#x, want %#x", b, id, tr.ID)
		}
		if snap.Counts[b] == 0 {
			t.Fatalf("exemplar on empty bucket %d", b)
		}
	}
	// The pinned trace resolves even though it never entered the trace ring.
	found := false
	for _, ts := range r.Traces() {
		if ts.ID == tr.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("exemplar trace id does not resolve to a retained span")
	}
}

func TestObserveOpUnsampledFallsBack(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	r.ObserveOp(h, time.Millisecond, nil)
	snap := h.Snapshot()
	if snap.Count != 1 || len(snap.Exemplars) != 0 {
		t.Fatalf("snapshot = %+v, want plain observation", snap)
	}
}

func TestEveryReportExemplarResolves(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// Far more sampled traces than the trace ring (32) or pin table hold;
	// spread latencies so exemplars land in many buckets.
	for i := 0; i < 500; i++ {
		tr := NewTrace("op")
		r.ObserveOp(h, time.Duration(i+1)*57*time.Microsecond, tr)
		tr.Finish(r)
	}
	rep := r.Report()
	retained := map[uint64]bool{}
	for _, ts := range rep.Traces {
		retained[ts.ID] = true
	}
	for name, hs := range rep.Snapshot.Hists {
		for b, id := range hs.Exemplars {
			if !retained[id] {
				t.Fatalf("hist %s bucket %d exemplar %#x not retained", name, b, id)
			}
		}
	}
}

func TestPinnedTraceGC(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// Same bucket every time: each new exemplar displaces the last, so old
	// pins become unreferenced and must be collected at the cap.
	for i := 0; i < maxPinnedTraces*2; i++ {
		r.ObserveOp(h, time.Millisecond, NewTrace("op"))
	}
	r.exMu.Lock()
	pinned := len(r.exTraces)
	r.exMu.Unlock()
	if pinned > maxPinnedTraces {
		t.Fatalf("pin table grew to %d, cap %d", pinned, maxPinnedTraces)
	}
}

// --- trace context v2 ---

func TestTraceContextTenantRoundTrip(t *testing.T) {
	tc := TraceContext{ID: 42, Op: "coord_write", Stage: "quorum.send", Tenant: "ds"}
	got, ok := DecodeTraceContext(tc.Encode())
	if !ok || got != tc {
		t.Fatalf("round trip = %+v ok=%v", got, ok)
	}
	// A v1 block (no tenant field) still decodes.
	var e wire.Enc
	e.U8(traceCtxV1)
	e.U64(7)
	e.Str("w")
	e.Str("s")
	got, ok = DecodeTraceContext(e.B)
	if !ok || got.ID != 7 || got.Op != "w" || got.Tenant != "" {
		t.Fatalf("v1 decode = %+v ok=%v", got, ok)
	}
}

// --- stitching with missing spans ---

func TestStitchTracesPartialSpans(t *testing.T) {
	// Replica span lost (node crashed before STATS could serve it): the trace
	// must still stitch into a partial timeline led by the origin span.
	client := TraceSnapshot{ID: 9, Op: "client.write", Node: "cli", Stages: []TraceStage{{Name: "send", At: 1}}}
	coord := TraceSnapshot{ID: 9, Op: "client.write", Node: "n1", Parent: "transport.send", Stages: []TraceStage{{Name: "quorum", At: 2}}}
	stitched := StitchTraces([]TraceSnapshot{coord, client})
	if len(stitched) != 1 {
		t.Fatalf("stitched = %+v", stitched)
	}
	st := stitched[0]
	if st.ID != 9 || len(st.Spans) != 2 || st.Spans[0].Node != "cli" {
		t.Fatalf("partial trace = %+v, want origin first", st)
	}
	if nodes := st.Nodes(); len(nodes) != 2 {
		t.Fatalf("nodes = %v", nodes)
	}

	// Client-only trace (every server span lost) still forms a valid
	// single-span timeline.
	only := StitchTraces([]TraceSnapshot{client})
	if len(only) != 1 || len(only[0].Spans) != 1 || only[0].Op != "client.write" {
		t.Fatalf("client-only = %+v", only)
	}

	// Orphaned child span (origin lost): group survives, child leads.
	orphan := StitchTraces([]TraceSnapshot{coord})
	if len(orphan) != 1 || orphan[0].Spans[0].Parent == "" {
		t.Fatalf("orphan = %+v", orphan)
	}
}

// --- watchdog ---

func TestWatchdogRules(t *testing.T) {
	r := NewRegistry()
	imbalance := 1.0
	degraded := false
	w := NewWatchdog(WatchdogConfig{
		Registry:  r,
		Imbalance: func() float64 { return imbalance },
		Probes:    map[string]func() bool{"wal_durability_degraded": func() bool { return degraded }},
	})
	w.Tick()
	if got := w.DegradedReasons(); len(got) != 0 {
		t.Fatalf("healthy registry: reasons = %v", got)
	}

	// Breaker flap: 3 opens inside one tick.
	r.Counter("transport.breaker.opened").Add(3)
	// Fsync-wait inflation: mean 50ms > 20ms default.
	r.Histogram("wal.fsync_wait").Observe(50 * time.Millisecond)
	// Retry surge: 30 retries over 10 ops.
	r.Counter("quorum.retries").Add(30)
	r.Counter("core.coord_writes").Add(10)
	// Fsync errors, load imbalance, and the durability probe.
	r.Counter("wal.fsync_errors").Add(1)
	imbalance = 9
	degraded = true
	w.Tick()

	want := []string{"breaker_flap", "fsync_errors", "fsync_wait_inflation",
		"quorum_retry_surge", "vnode_imbalance", "wal_durability_degraded"}
	got := w.DegradedReasons()
	if len(got) != len(want) {
		t.Fatalf("reasons = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reasons = %v, want %v", got, want)
		}
	}

	// Each onset filed exactly one anomaly, mirrored into the flight ring.
	if an := r.Anomalies(); len(an) != len(want) {
		t.Fatalf("anomalies = %+v", an)
	}
	watchdogEvents := 0
	for _, ev := range r.FlightEvents(0) {
		if ev.Flags&FlagWatchdog != 0 {
			watchdogEvents++
		}
	}
	if watchdogEvents != len(want) {
		t.Fatalf("flight has %d watchdog events, want %d", watchdogEvents, len(want))
	}

	// Next quiet tick clears the level but files no duplicate anomalies.
	imbalance, degraded = 1, false
	w.Tick()
	if got := w.DegradedReasons(); len(got) != 0 {
		t.Fatalf("after recovery: reasons = %v", got)
	}
	if an := r.Anomalies(); len(an) != len(want) {
		t.Fatalf("recovery filed duplicate anomalies: %+v", an)
	}

	// A second onset is a new edge and files again.
	r.Counter("transport.breaker.opened").Add(5)
	w.Tick()
	if an := r.Anomalies(); len(an) != len(want)+1 {
		t.Fatalf("re-onset not filed: %+v", an)
	}
}

func TestWatchdogStartClose(t *testing.T) {
	r := NewRegistry()
	w := NewWatchdog(WatchdogConfig{Registry: r, Every: time.Millisecond})
	w.Start()
	// A delta rule is active for one tick only, so errors keep arriving
	// while the test polls; otherwise a poll that sleeps past the 1 ms tick
	// misses the level.
	var got []string
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		r.Counter("wal.fsync_errors").Add(1)
		if got = w.DegradedReasons(); len(got) > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if len(got) != 1 || got[0] != "fsync_errors" {
		t.Fatalf("reasons = %v", got)
	}
	w.Close()
	w.Close() // idempotent
}

// --- report surface ---

func TestReportCarriesIntrospection(t *testing.T) {
	r := NewRegistry()
	r.SetNode("n1")
	r.RecordKey(99, 3, true, 10)
	r.RecordOp(WideEvent{Op: "coord_write", KeyHash: 99})
	r.RecordTenantOp("ds", true, 10, time.Millisecond, false)
	r.RecordAnomaly("breaker_flap", "test")
	rep := r.Report()
	if len(rep.TopKeys) != 1 || rep.TopKeys[0].Hash != 99 {
		t.Fatalf("report top keys = %+v", rep.TopKeys)
	}
	if len(rep.Tenants) != 1 || rep.Tenants[0].Tenant != "ds" {
		t.Fatalf("report tenants = %+v", rep.Tenants)
	}
	if len(rep.Flight) != 2 { // the op plus the anomaly's watchdog event
		t.Fatalf("report flight = %+v", rep.Flight)
	}
	if len(rep.Anomalies) != 1 || rep.Anomalies[0].Kind != "breaker_flap" {
		t.Fatalf("report anomalies = %+v", rep.Anomalies)
	}
}
