package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// These tests boot no cluster: they pin the arithmetic every reported number
// rests on.

func TestPercentileNearestRank(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(1000 - i) // 1000..1, unsorted on purpose
	}
	if got, _ := percentile(v, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %d, want 500", got)
	}
	got, ok := percentile(v, 0.99)
	if got != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %d (reportable %v), want 990 with exactly ten samples beyond it", got, ok)
	}
	if _, ok := percentile(v[:999], 0.99); ok {
		t.Error("p99 of 999 samples has only nine beyond it and must not be reportable")
	}
	if got, ok := percentile(nil, 0.5); got != 0 || ok {
		t.Errorf("percentile of nothing = %d, %v", got, ok)
	}
	if got, _ := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %d, want 7", got)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
	if got := quartileSpread([]float64{3, 5}); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("spread of [3 5] = %v, want 3/4", got)
	}
	if got := quartileSpread([]float64{4}); got != 0 {
		t.Errorf("one value has no spread, got %v", got)
	}
}

// fakeClock is a clock only Sleep and the operations themselves advance.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const every = 10 * time.Millisecond
	service := []time.Duration{3, 25, 3, 3} // ms; the second operation stalls
	start := time.Unix(100, 0)
	clk := &fakeClock{now: start}
	var late, lat []time.Duration
	openLoop(clk, start, every, len(service), 1, func(_, i int, due time.Time) {
		if want := start.Add(time.Duration(i) * every); !due.Equal(want) {
			t.Errorf("op %d due %v, want %v", i, due, want)
		}
		late = append(late, clk.Now().Sub(due))
		clk.Sleep(service[i] * time.Millisecond) // the operation itself
		lat = append(lat, clk.Now().Sub(due))
	})
	ms := time.Millisecond
	// Op 2 is due at 20 ms but the worker is busy until 35: it is sent 15
	// late and charged 18, not its 3 of service. Op 3 still pays 8 of it.
	wantLate := []time.Duration{0, 0, 15 * ms, 8 * ms}
	wantLat := []time.Duration{3 * ms, 25 * ms, 18 * ms, 11 * ms}
	for i := range service {
		if late[i] != wantLate[i] || lat[i] != wantLat[i] {
			t.Errorf("op %d: sent %v late with latency %v, want %v and %v", i, late[i], lat[i], wantLate[i], wantLat[i])
		}
	}
}

func TestOpenLoopSharesTheScheduleBetweenWorkers(t *testing.T) {
	seen := make([]int, 100)
	start := time.Now()
	openLoop(realClock{}, start, 0, len(seen), 4, func(_, i int, _ time.Time) { seen[i]++ })
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("op %d ran %d times", i, n)
		}
	}
}

func sp(id, parent uint64, kind, name, node, peer string, start, dur int64) span {
	return span{ID: id, Parent: parent, Kind: kind, Name: name, Node: node, Peer: peer, Start: start, Dur: dur}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := sp(1, 0, kindServe, "coord_write", "a", "", 100, 100) // [100,200)
	kids := []span{
		sp(2, 1, kindCall, "replica_write", "a", "b", 110, 40), // [110,150)
		sp(3, 1, kindCall, "replica_write", "a", "c", 130, 40), // [130,170) overlaps the first
		sp(4, 1, kindCall, "replica_write", "a", "d", 190, 50), // [190,240) outlives the parent
		sp(5, 1, kindCall, "replica_write", "a", "e", 120, 10), // inside the first
	}
	ptrs := []*span{&kids[0], &kids[1], &kids[2], &kids[3]}
	// covered: [110,170) = 60 and [190,200) = 10, so 30 of 100 are the parent's own
	if got := selfTime(&parent, ptrs); got != 30 {
		t.Errorf("self time = %d, want 30", got)
	}
	if got := selfTime(&parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want the duration", got)
	}
}

func TestMatchCallsByContainment(t *testing.T) {
	spans := []span{
		sp(1, 0, kindCall, "replica_write", "a", "b", 100, 50),  // [100,150)
		sp(2, 0, kindServe, "replica_write", "b", "", 110, 30),  // inside call 1
		sp(3, 0, kindCall, "replica_write", "a", "c", 100, 50),  // same time, other destination
		sp(4, 0, kindServe, "replica_write", "c", "", 120, 20),  // inside call 3
		sp(5, 0, kindCall, "replica_read", "a", "b", 100, 50),   // same destination, other opcode
		sp(6, 0, kindServe, "replica_write", "b", "", 300, 10),  // nothing contains it
		sp(7, 0, kindCall, "replica_write", "a", "b", 400, 10),  // its handler was not recorded
		sp(8, 0, kindServe, "replica_write", "b", "", 140, 20),  // starts inside call 1 but ends after it
		sp(9, 0, kindVFS, "sync", "b", "", 100, 10),             // not a candidate at all
		sp(10, 0, kindCall, "replica_write", "b", "b", 500, 50), // a node may call itself
		sp(11, 0, kindServe, "replica_write", "b", "", 510, 10),
	}
	got, st := matchCalls(pointers(spans))
	want := map[uint64]uint64{2: 1, 4: 3, 11: 10}
	if len(got) != len(want) {
		t.Fatalf("matched %d handlers, want %d: %v", len(got), len(want), got)
	}
	for serve, call := range want {
		if got[serve] == nil || got[serve].ID != call {
			t.Errorf("handler %d matched to %v, want call %d", serve, got[serve], call)
		}
	}
	if st.calls != 5 || st.serves != 5 || st.matched != 3 || st.ambiguous != 0 {
		t.Errorf("stats = %+v, want 5 calls, 5 serves, 3 matched, 0 ambiguous", st)
	}
}

func TestMatchCallsTwoInFlight(t *testing.T) {
	// Two calls of one opcode to one node are in flight together and both
	// contain both handlers: each handler gets one call, each call is used
	// once, and both matches are flagged ambiguous.
	spans := []span{
		sp(1, 0, kindCall, "replica_write", "a", "b", 100, 100), // [100,200)
		sp(2, 0, kindCall, "replica_write", "a", "b", 105, 90),  // [105,195)
		sp(3, 0, kindServe, "replica_write", "b", "", 110, 20),  // [110,130)
		sp(4, 0, kindServe, "replica_write", "b", "", 120, 30),  // [120,150)
	}
	got, st := matchCalls(pointers(spans))
	if got[3] == nil || got[4] == nil || got[3].ID == got[4].ID {
		t.Fatalf("want both handlers matched to different calls, got %v", got)
	}
	if got[3].ID != 2 {
		t.Errorf("the first handler takes the latest-started call that contains it (2), got %d", got[3].ID)
	}
	if st.matched != 2 || st.ambiguous != 1 {
		t.Errorf("stats = %+v: the first match had two candidates, the second only the call left over", st)
	}
	// The sum of call-minus-handler time does not depend on the assignment.
	var hop int64
	for serve, call := range got {
		for i := range spans {
			if spans[i].ID == serve {
				hop += call.Dur - spans[i].Dur
			}
		}
	}
	if hop != 100+90-20-30 {
		t.Errorf("total hop = %d, want 140", hop)
	}

	// Nested without ambiguity: the outer call started before the first
	// handler, the inner one after it.
	nested := []span{
		sp(1, 0, kindCall, "replica_write", "a", "b", 100, 100),
		sp(2, 0, kindCall, "replica_write", "a", "b", 120, 50),
		sp(3, 0, kindServe, "replica_write", "b", "", 110, 80), // only call 1 contains it
		sp(4, 0, kindServe, "replica_write", "b", "", 130, 30), // both do, but 1 is taken
	}
	got, st = matchCalls(pointers(nested))
	if got[3].ID != 1 || got[4].ID != 2 || st.ambiguous != 0 {
		t.Errorf("nested: got %v / %+v, want 3->1, 4->2, unambiguous", got, st)
	}
}

func pointers(spans []span) []*span {
	out := make([]*span, len(spans))
	for i := range spans {
		out[i] = &spans[i]
	}
	return out
}

func TestAnalyseAccountsForAWriteAlongItsBlockingPath(t *testing.T) {
	// One write: driver -> n1 (coordinator) -> n2 and n3. n2 answers first,
	// n3's answer lets the handler finish, n3 syncs its log meanwhile.
	spans := []span{
		sp(1, 0, kindOp, "write", "driver", "", 1000, 1000),          // [1000,2000)
		sp(2, 1, kindCall, "coord_write", "driver", "n1", 1010, 980), // [1010,1990)
		sp(3, 0, kindServe, "coord_write", "n1", "", 1100, 800),      // [1100,1900)
		sp(4, 3, kindCall, "replica_write", "n1", "n2", 1150, 300),   // [1150,1450)
		sp(5, 3, kindCall, "replica_write", "n1", "n3", 1150, 700),   // [1150,1850)
		sp(6, 0, kindServe, "replica_write", "n2", "", 1200, 200),
		sp(7, 0, kindServe, "replica_write", "n3", "", 1250, 500), // [1250,1750)
		sp(8, 0, kindVFS, "write", "n3", "", 1300, 20),
		sp(9, 0, kindVFS, "sync", "n3", "", 1320, 380),  // [1320,1700)
		sp(10, 0, kindVFS, "sync", "n2", "", 5000, 100), // long after: belongs to nobody here
	}
	spans[7].Bytes = 164
	b := analyse(buildTrace(spans, "coord"))
	check := func(name string, want int64) {
		t.Helper()
		if got := b.s[name]; len(got) == 0 || got[0] != want {
			t.Errorf("%s = %v, want first sample %d", name, got, want)
		}
	}
	check("client.op_self_us", 20)         // 1000 - 980
	check("transport.client_hop_us", 180)  // 980 - 800
	check("core.coord_write_self_us", 100) // 800 - [1150,1850)
	check("quorum.write_wait_us", 700)
	check("quorum.straggler_us", 0)
	check("transport.replica_hop_us", 100)                       // 300 - 200 for n2, first in span order
	check("core.replica_write_self_us", 200)                     // n2: 200 - nothing
	check("wal.fsync_wait_us", 0)                                // n2 saw no sync
	if got := b.s["core.replica_write_self_us"][1]; got != 100 { // n3: 500 - 20 - 380
		t.Errorf("n3 replica self = %d, want 100", got)
	}
	if got := b.s["wal.fsync_wait_us"][1]; got != 380 {
		t.Errorf("n3 fsync wait = %d, want 380", got)
	}
	if b.ops != 1 || b.calls.client != 1 || b.calls.replica != 2 || b.vfsWriteBytes != 164 || len(b.syncs) != 2 {
		t.Errorf("counts = ops %d, %+v, %d write bytes, %d syncs", b.ops, b.calls, b.vfsWriteBytes, len(b.syncs))
	}
	// 20 + 180 + 100 + 700 (the blocking call to n3) = 1000: nothing is left over.
	if got := b.opUnattributed[opWrite]; len(got) != 1 || got[0] != 0 {
		t.Errorf("unattributed = %v, want [0]", got)
	}
}

func TestVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	// Half its runs beat steady's, half lose, though the median is 4% lower.
	mixed := []float64{96, 96, 96, 96, 96, 96, 103, 103, 103, 103}
	for _, tc := range []struct {
		name       string
		base, cand []float64
		better     string
		want       string
	}{
		{"latency up 20% against a 10% bound", steady, scale(1.2), lower, verdictWorse},
		{"latency down 20%", steady, scale(0.8), lower, verdictBetter},
		{"throughput up 20%", steady, scale(1.2), higher, verdictBetter},
		{"throughput down 20%", steady, scale(0.8), higher, verdictWorse},
		{"worse, but within the bound", steady, scale(1.05), lower, verdictSame},
		{"a gain inside the bound but beyond the spread, won in every pair", steady, scale(0.95), lower, verdictBetter},
		{"a gain no larger than the baseline's own spread", steady, scale(0.99), lower, verdictSame},
		{"a lower median that wins only six pairs of ten", steady, mixed, lower, verdictSame},
		{"baseline spread wider than the bound", noisy, scale(1.2), lower, verdictUnresolved},
		{"candidate spread wider than the bound", steady, noisy, lower, verdictUnresolved},
		{"one run a side can show a regression", []float64{100}, []float64{125}, lower, verdictWorse},
		{"but one pair cannot carry a gain", []float64{100}, []float64{60}, lower, verdictSame},
	} {
		if _, _, _, got := verdict(tc.base, tc.cand, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	delta, wins, pairs, _ := verdict(steady, scale(1.2), lower, 0.10)
	if math.Abs(delta-0.2) > 1e-9 || wins != 0 || pairs != 10 {
		t.Errorf("delta %v with %d wins of %d pairs, want +0.2 of the baseline's median and 0 of 10", delta, wins, pairs)
	}
}

func TestOwnedKeysPartitionTheKeySpace(t *testing.T) {
	r := &runner{}
	for i := 0; i < 3; i++ {
		r.workers = append(r.workers, &worker{id: i, r: r})
	}
	for _, w := range r.workers {
		for _, i := range []int{0, 1, 2, 3, 4998, preloadKeys - 2, preloadKeys - 1} {
			got := w.owned(i)
			if got%3 != w.id || got < 0 || got >= preloadKeys || got-i > 2 || i-got > 3 {
				t.Errorf("worker %d: owned(%d) = %d", w.id, i, got)
			}
		}
	}
}

func TestValuesNameTheirKeyAndPost(t *testing.T) {
	r := &runner{filler: make([]byte, 100)}
	v := r.value(0x2a, 7)
	if len(v) != 100 || !valueNames(v, 0x2a) || valueNames(v, 0x2b) {
		t.Errorf("value %q does not name key 0x2a alone", v[:30])
	}
	sent, n, ok := parsePost(r.postValue(1234, 1700000000123456789))
	if !ok || sent != 1700000000123456789 || n != 1234 {
		t.Errorf("parsePost = %d, %d, %v", sent, n, ok)
	}
	if _, _, ok := parsePost([]byte("not a post")); ok {
		t.Error("parsePost accepted garbage")
	}
}

// TestContractMatchesCatalogue keeps BENCHMARK.json, which the driver and
// -compare read, equal to what the program reports.
func TestContractMatchesCatalogue(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better, Why string }
	var c struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, listed []entry, wantE2E bool) {
		seen := map[string]bool{}
		for _, m := range listed {
			def, ok := catalogue[m.Name]
			if !ok || def.endToEnd != wantE2E {
				t.Errorf("%s metric %q is not a %s metric of the program", kind, m.Name, kind)
				continue
			}
			if def.unit != m.Unit || def.better != m.Better {
				t.Errorf("%s: BENCHMARK.json says %s/%s, the program %s/%s", m.Name, m.Unit, m.Better, def.unit, def.better)
			}
			seen[m.Name] = true
		}
		for name, def := range catalogue {
			if def.endToEnd == wantE2E && !seen[name] {
				t.Errorf("%s metric %q is missing from BENCHMARK.json", kind, name)
			}
		}
	}
	check("end-to-end", c.EndToEnd, true)
	check("per-layer", c.PerLayer, false)
}
