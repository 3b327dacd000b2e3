package opshttp_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"sedna/internal/kv"
	"sedna/internal/obs"
	"sedna/internal/opshttp"
	"sedna/internal/testcluster"
)

// --- minimal Prometheus text-format checker -------------------------------

var (
	promTypeRe = regexp.MustCompile(
		`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
	promHelpRe = regexp.MustCompile(
		`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) \S.*$`)
	promSampleRe = regexp.MustCompile(
		`^([a-zA-Z_:][a-zA-Z0-9_:]*)` + // metric name
			`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?` + // labels
			` (\S+)$`) // value
)

// checkPromExposition validates an exposition against a minimal reading of
// the Prometheus text format: every sample line must parse with a name in the
// legal charset (unsanitized obs names with dots or dashes fail here), its
// value must be a float, and its metric (or its summary's _sum/_count
// companion) must have been announced by preceding # HELP and # TYPE lines.
func checkPromExposition(t *testing.T, text string) {
	t.Helper()
	if strings.TrimSpace(text) == "" {
		t.Fatal("empty metrics exposition")
	}
	typed := map[string]bool{}
	helped := map[string]bool{}
	samples := 0
	for i, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if m := promHelpRe.FindStringSubmatch(line); m != nil {
			helped[m[1]] = true
			continue
		}
		if m := promTypeRe.FindStringSubmatch(line); m != nil {
			if !helped[m[1]] {
				t.Fatalf("metrics line %d: # TYPE %s has no preceding # HELP", i+1, m[1])
			}
			typed[m[1]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("metrics line %d: malformed comment %q", i+1, line)
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("metrics line %d unparseable: %q", i+1, line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("metrics line %d: bad value %q: %v", i+1, m[3], err)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(m[1], "_count"), "_sum")
		if !typed[m[1]] && !typed[base] {
			t.Fatalf("metrics line %d: sample %q has no preceding # TYPE", i+1, m[1])
		}
		samples++
	}
	if samples == 0 {
		t.Fatal("metrics exposition contains no samples")
	}
}

func mustGet(t *testing.T, url string, want int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != want {
		t.Fatalf("GET %s: status %d (want %d), body %s", url, resp.StatusCode, want, b)
	}
	if len(strings.TrimSpace(string(b))) == 0 {
		t.Fatalf("GET %s: empty body", url)
	}
	return string(b)
}

// --- unit coverage of the renderer and health mapping ---------------------

func TestWriteMetricsSanitizesNames(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("core.coord-write").Add(2)
	r.Gauge("mem.bytes").Set(7)
	h := r.Histogram("lat.op")
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	var b strings.Builder
	opshttp.WriteMetrics(&b, r.Snapshot(), nil, nil)
	out := b.String()
	checkPromExposition(t, out)
	for _, want := range []string{
		"# HELP sedna_core_coord_write ",
		"# TYPE sedna_core_coord_write counter",
		"sedna_core_coord_write 2",
		"# HELP sedna_mem_bytes ",
		"sedna_mem_bytes 7",
		"# HELP sedna_lat_op ",
		`sedna_lat_op{quantile="0.5"}`,
		"sedna_lat_op_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The raw obs names (dots, dashes) must never leak into sample lines —
	// only the free-form # HELP text may mention them.
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, raw := range []string{"coord-write", "core.coord", "lat.op", "mem.bytes"} {
			if strings.Contains(line, raw) {
				t.Fatalf("sample line leaks unsanitized name %q: %q", raw, line)
			}
		}
	}
}

// TestCheckerRejectsUnsanitizedNames pins the checker itself: a sample or
// comment line carrying a raw obs metric name (dots, dashes, spaces) must not
// slip through as valid exposition.
func TestCheckerRejectsUnsanitizedNames(t *testing.T) {
	for _, line := range []string{
		"sedna_core.coord_write 2",
		"core-coord-write 1",
		"sedna core 3",
	} {
		if promSampleRe.MatchString(line) {
			t.Fatalf("sample regex accepts unsanitized line %q", line)
		}
	}
	if promTypeRe.MatchString("# TYPE sedna_core.coord counter") {
		t.Fatal("type regex accepts unsanitized name")
	}
	if promHelpRe.MatchString("# HELP sedna_core.coord help") {
		t.Fatal("help regex accepts unsanitized name")
	}
}

// --- introspection endpoints ----------------------------------------------

func TestTopzFlightzAndSlowTraces(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetNode("n0")
	for i := 0; i < 10; i++ {
		reg.RecordKey(uint64(100+i), int32(i), true, 8)
	}
	for i := 0; i < 5; i++ {
		reg.RecordKey(42, 1, false, 8) // hottest
	}
	reg.RecordTenantOp("ds", true, 8, time.Millisecond, false)
	reg.RecordAnomaly("breaker_flap", "test onset")
	for i := 0; i < 6; i++ {
		reg.RecordOp(obs.WideEvent{Op: "coord_write", DurNs: int64(i)})
		reg.RecordSlowOp(obs.SlowOp{Op: "coord_write", TraceID: uint64(i + 1), Wall: int64(i + 1), VNode: -1})
	}

	s, err := opshttp.Start(opshttp.Config{
		Addr: "127.0.0.1:0", Node: "n0",
		Report: reg.Report,
		Flight: reg.FlightEvents,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	var topz struct {
		Node      string               `json:"node"`
		TopKeys   []obs.TopKEntry      `json:"top_keys"`
		Tenants   []obs.TenantSnapshot `json:"tenants"`
		Anomalies []obs.Anomaly        `json:"anomalies"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, base+"/topz", http.StatusOK)), &topz); err != nil {
		t.Fatalf("topz JSON: %v", err)
	}
	if topz.Node != "n0" || len(topz.TopKeys) == 0 || topz.TopKeys[0].Hash != 42 {
		t.Fatalf("topz = %+v, want hash 42 hottest", topz)
	}
	if len(topz.Tenants) != 1 || topz.Tenants[0].Tenant != "ds" {
		t.Fatalf("topz tenants = %+v", topz.Tenants)
	}
	if len(topz.Anomalies) != 1 || topz.Anomalies[0].Kind != "breaker_flap" {
		t.Fatalf("topz anomalies = %+v", topz.Anomalies)
	}
	if err := json.Unmarshal([]byte(mustGet(t, base+"/topz?limit=2", http.StatusOK)), &topz); err != nil {
		t.Fatalf("topz JSON: %v", err)
	}
	if len(topz.TopKeys) != 2 {
		t.Fatalf("topz?limit=2 returned %d keys", len(topz.TopKeys))
	}

	var evs []obs.WideEvent
	if err := json.Unmarshal([]byte(mustGet(t, base+"/flightz?limit=3", http.StatusOK)), &evs); err != nil {
		t.Fatalf("flightz JSON: %v", err)
	}
	if len(evs) != 3 || evs[0].Op != "coord_write" || evs[0].DurNs != 5 {
		t.Fatalf("flightz = %+v, want 3 newest-first", evs)
	}

	// /traces?slow=1 serves newest-first and honors ?limit (DESIGN.md §8).
	var slows []obs.SlowOp
	if err := json.Unmarshal([]byte(mustGet(t, base+"/traces?slow=1&limit=2", http.StatusOK)), &slows); err != nil {
		t.Fatalf("slow JSON: %v", err)
	}
	if len(slows) != 2 || slows[0].TraceID != 6 || slows[1].TraceID != 5 {
		t.Fatalf("slow ops = %+v, want newest-first trace ids 6,5", slows)
	}
	if err := json.Unmarshal([]byte(mustGet(t, base+"/traces?slow=1", http.StatusOK)), &slows); err != nil {
		t.Fatalf("slow JSON: %v", err)
	}
	if len(slows) != 6 || slows[0].TraceID != 6 {
		t.Fatalf("unlimited slow ops = %d entries, first %+v", len(slows), slows[0])
	}
}

func TestHealthzMapsNotOKTo503(t *testing.T) {
	s, err := opshttp.Start(opshttp.Config{
		Addr:   "127.0.0.1:0",
		Health: func() opshttp.HealthStatus { return opshttp.HealthStatus{Node: "sick", OK: false} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := mustGet(t, "http://"+s.Addr()+"/healthz", http.StatusServiceUnavailable)
	var h opshttp.HealthStatus
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	if h.Node != "sick" || h.OK {
		t.Fatalf("healthz = %+v", h)
	}
}

// --- end-to-end over the simulated network --------------------------------

// TestOpsPlaneEndToEnd boots a 3-node cluster, performs one fully sampled
// client write, and asserts the ISSUE's acceptance criteria: the write
// yields exactly one causally-stitched distributed trace with spans from the
// client, the coordinator's quorum engine and at least two replica servers;
// the ops-plane endpoints answer with valid payloads; and the slow-op log
// force-retained the op.
func TestOpsPlaneEndToEnd(t *testing.T) {
	cl, err := testcluster.NewCluster(testcluster.ClusterConfig{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WaitConverged(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	cli, reg, err := cl.ClientWithObs()
	if err != nil {
		t.Fatal(err)
	}
	reg.SetNode("client-0")
	reg.SetTraceSampling(1)                 // trace every op
	reg.SetSlowOpThreshold(time.Nanosecond) // every op is "slow": exercises the event log

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cli.WriteLatest(ctx, kv.Key("ds/tb/trace-key"), []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// The write returns after W=2 acks, so the straggler replica span can
	// land after the call: poll the cluster-wide span set until the stitched
	// trace is complete.
	var stitched obs.StitchedTrace
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := append([]obs.TraceSnapshot(nil), reg.Traces()...)
		for _, srv := range cl.Servers {
			spans = append(spans, srv.ObsReport().Traces...)
		}
		var found bool
		for _, st := range obs.StitchTraces(spans) {
			if st.Op == "client.write" && traceComplete(st) {
				stitched, found = st, true
				break
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no complete stitched trace; spans:\n%v", obs.StitchTraces(spans))
		}
		time.Sleep(25 * time.Millisecond)
	}
	if stitched.ID == 0 {
		t.Fatal("stitched trace has no ID")
	}
	if got := stitched.Nodes(); len(got) < 3 { // client + coordinator + ≥1 more replica
		t.Fatalf("trace spans only nodes %v", got)
	}

	// Ops plane on a data node.
	ops, err := opshttp.Start(cl.Servers[0].OpsConfig("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	base := "http://" + ops.Addr()

	metrics := mustGet(t, base+"/metrics", http.StatusOK)
	checkPromExposition(t, metrics)
	if !strings.Contains(metrics, "sedna_") {
		t.Fatal("/metrics carries no sedna_ metrics")
	}
	// The elasticity counters register at server construction, so they are
	// scrapeable (at zero) before any campaign runs — dashboards and alerts
	// can reference them unconditionally.
	for _, name := range []string{
		"sedna_rebalance_rows_streamed",
		"sedna_rebalance_dual_writes",
		"sedna_rebalance_cutovers",
		"sedna_rebalance_aborts",
	} {
		if !strings.Contains(metrics, name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}

	var h opshttp.HealthStatus
	if err := json.Unmarshal([]byte(mustGet(t, base+"/healthz", http.StatusOK)), &h); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	if h.Node != "sedna-0" || !h.OK {
		t.Fatalf("healthz = %+v", h)
	}

	var rv struct {
		Version uint64     `json:"version"`
		Nodes   []string   `json:"nodes"`
		VNodes  [][]string `json:"vnodes"`
	}
	if err := json.Unmarshal([]byte(mustGet(t, base+"/ring", http.StatusOK)), &rv); err != nil {
		t.Fatalf("ring JSON: %v", err)
	}
	if len(rv.Nodes) != 3 || len(rv.VNodes) == 0 {
		t.Fatalf("ring view = %+v", rv)
	}

	var imb []map[string]any
	if err := json.Unmarshal([]byte(mustGet(t, base+"/imbalance", http.StatusOK)), &imb); err != nil {
		t.Fatalf("imbalance JSON: %v", err)
	}

	var stitchedRemote []obs.StitchedTrace
	if err := json.Unmarshal([]byte(mustGet(t, base+"/traces", http.StatusOK)), &stitchedRemote); err != nil {
		t.Fatalf("traces JSON: %v", err)
	}

	var rep obs.Report
	if err := json.Unmarshal([]byte(mustGet(t, base+"/statsz", http.StatusOK)), &rep); err != nil {
		t.Fatalf("statsz JSON: %v", err)
	}
	if rep.Node != "sedna-0" {
		t.Fatalf("statsz node = %q", rep.Node)
	}

	mustGet(t, base+"/debug/pprof/cmdline", http.StatusOK)

	// The generic Config mounts on any registry: serve the client's obs and
	// read its slow-op log (force-retained because of the 1ns threshold).
	cops, err := opshttp.Start(opshttp.Config{Addr: "127.0.0.1:0", Node: "client-0", Report: reg.Report})
	if err != nil {
		t.Fatal(err)
	}
	defer cops.Close()
	var slows []obs.SlowOp
	if err := json.Unmarshal([]byte(mustGet(t, "http://"+cops.Addr()+"/traces?slow=1", http.StatusOK)), &slows); err != nil {
		t.Fatalf("slow-op JSON: %v", err)
	}
	var slow *obs.SlowOp
	for i := range slows {
		if slows[i].Op == "client.write" {
			slow = &slows[i]
		}
	}
	if slow == nil {
		t.Fatalf("slow-op log missing the write: %+v", slows)
	}
	if slow.TraceID != stitched.ID {
		t.Fatalf("slow op trace id %x != stitched id %x", slow.TraceID, stitched.ID)
	}
	if slow.VNode < 0 || slow.KeyHash == 0 {
		t.Fatalf("slow op lost routing context: %+v", slow)
	}
}

// traceComplete reports whether a stitched trace shows the full causal path
// of one client write: an origin span that departed via client.send, a
// coordinator span that went through the quorum engine, and replica spans on
// at least two distinct nodes.
func traceComplete(st obs.StitchedTrace) bool {
	var origin, quorum bool
	replicas := map[string]bool{}
	for _, sp := range st.Spans {
		for _, stg := range sp.Stages {
			if sp.Parent == "" && stg.Name == "client.send" {
				origin = true
			}
			if strings.HasPrefix(stg.Name, "quorum.") {
				quorum = true
			}
		}
		if sp.Parent == "rpc.write_replica" && sp.Node != "" {
			replicas[sp.Node] = true
		}
	}
	return origin && quorum && len(replicas) >= 2
}
