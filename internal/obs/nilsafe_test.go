package obs

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestNilSafetyAudit calls every exported method on a nil *Registry, nil
// metric handles and a nil *Trace, asserting the no-op contract the package
// doc promises: instrumented code never branches on "is observability
// configured". A reflection sweep at the end fails the test when a new
// exported method is added without a nil-safety call here, so the audit
// cannot silently go stale.
func TestNilSafetyAudit(t *testing.T) {
	var r *Registry

	// Metric handles off a nil registry are nil and fully inert.
	r.Counter("c").Inc()
	r.Counter("c").Add(3)
	if got := r.Counter("c").Load(); got != 0 {
		t.Fatalf("nil counter Load = %d", got)
	}
	r.Gauge("g").Set(9)
	r.Gauge("g").Add(-4)
	if got := r.Gauge("g").Load(); got != 0 {
		t.Fatalf("nil gauge Load = %d", got)
	}
	r.Histogram("h").Observe(time.Millisecond)
	r.Histogram("h").ObserveValue(42)
	ran := false
	r.Histogram("h").Time(func() { ran = true })
	if !ran {
		t.Fatal("nil histogram Time must still run fn")
	}
	if hs := r.Histogram("h").Snapshot(); hs.Count != 0 || hs.Counts != nil {
		t.Fatalf("nil histogram Snapshot = %+v", hs)
	}

	// Registry-level surfaces.
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Hists) != 0 {
		t.Fatalf("nil registry Snapshot = %+v", s)
	}
	if names := r.Names(); names != nil {
		t.Fatalf("nil registry Names = %v", names)
	}

	// Tracing.
	r.SetTraceSampling(1)
	if tr := r.SampleTrace("op"); tr != nil {
		t.Fatal("nil registry sampled a trace")
	}
	if traces := r.Traces(); traces != nil {
		t.Fatalf("nil registry Traces = %v", traces)
	}
	wired := TraceContext{ID: 7, Op: "w", Stage: "client.send"}.Encode()
	if tr := r.ContinueTrace(wired); tr != nil {
		t.Fatal("nil registry continued a trace")
	}

	// Identity and the slow-op log.
	r.SetNode("n1")
	if got := r.NodeName(); got != "" {
		t.Fatalf("nil registry NodeName = %q", got)
	}
	r.SetSlowOpThreshold(time.Millisecond)
	if got := r.SlowOpThreshold(); got != 0 {
		t.Fatalf("nil registry SlowOpThreshold = %v", got)
	}
	if r.IsSlow(time.Hour) {
		t.Fatal("nil registry IsSlow = true")
	}
	r.RecordSlowOp(SlowOp{Op: "x", Dur: time.Second})
	if got := r.SlowOps(); got != nil {
		t.Fatalf("nil registry SlowOps = %v", got)
	}
	if rep := r.Report(); rep.Node != "" || rep.Traces != nil || rep.SlowOps != nil {
		t.Fatalf("nil registry Report = %+v", rep)
	}

	// Introspection plane: sketch, flight recorder, tenants, exemplars,
	// anomalies.
	r.RecordKey(99, 1, true, 64)
	if got := r.TopKeys(8); got != nil {
		t.Fatalf("nil registry TopKeys = %v", got)
	}
	r.RecordOp(WideEvent{Op: "w"})
	if got := r.FlightEvents(8); got != nil {
		t.Fatalf("nil registry FlightEvents = %v", got)
	}
	rule, err := ParseTenantRule("dataset")
	if err != nil {
		t.Fatalf("ParseTenantRule: %v", err)
	}
	r.SetTenantRule(rule)
	if got := r.TenantOf("ds/tb/k"); got != "" {
		t.Fatalf("nil registry TenantOf = %q", got)
	}
	r.RecordTenantOp("ds", true, 8, time.Millisecond, false)
	if got := r.TenantsSnapshot(); got != nil {
		t.Fatalf("nil registry TenantsSnapshot = %v", got)
	}
	r.Histogram("h").ObserveExemplar(time.Millisecond, 7)
	r.ObserveOp(r.Histogram("h"), time.Millisecond, nil)
	r.RecordAnomaly("kind", "detail")
	if got := r.Anomalies(); got != nil {
		t.Fatalf("nil registry Anomalies = %v", got)
	}

	// Nil traces (what SampleTrace hands back on unsampled ops).
	var tr *Trace
	tr.Mark("stage")
	if got := tr.Elapsed(); got != 0 {
		t.Fatalf("nil trace Elapsed = %v", got)
	}
	if snap := tr.Snapshot(); snap.ID != 0 || snap.Stages != nil {
		t.Fatalf("nil trace Snapshot = %+v", snap)
	}
	tr.Finish(nil)
	tr.Finish(NewRegistry())

	// A live trace finishing into a nil registry must not panic either.
	live := NewTrace("op")
	live.Mark("a")
	live.Finish(nil)

	// Context helpers around absent traces.
	ctx := WithTrace(context.Background(), nil)
	if got := FromContext(ctx); got != nil {
		t.Fatalf("FromContext after WithTrace(nil) = %v", got)
	}
	Mark(ctx, "noop")
	if enc := WireContext(ctx, "send"); enc != nil {
		t.Fatalf("WireContext without trace = %v", enc)
	}
	// Garbage on the wire decodes to "no trace" rather than an error.
	if got := NewRegistry().ContinueTrace([]byte{0xff, 0x00, 0x01}); got != nil {
		t.Fatalf("ContinueTrace(garbage) = %v", got)
	}

	auditCoverage(t)
}

// auditCoverage cross-checks the explicit calls above against the actual
// exported method sets, so adding a method without auditing it fails here.
func auditCoverage(t *testing.T) {
	t.Helper()
	covered := map[reflect.Type]map[string]bool{
		reflect.TypeOf((*Registry)(nil)): {
			"Counter": true, "Gauge": true, "Histogram": true,
			"Snapshot": true, "Names": true,
			"SampleTrace": true, "SetTraceSampling": true, "Traces": true,
			"ContinueTrace": true,
			"SetNode":       true, "NodeName": true,
			"SetSlowOpThreshold": true, "SlowOpThreshold": true,
			"IsSlow": true, "RecordSlowOp": true, "SlowOps": true,
			"Report":    true,
			"RecordKey": true, "TopKeys": true,
			"RecordOp": true, "FlightEvents": true,
			"SetTenantRule": true, "TenantOf": true,
			"RecordTenantOp": true, "TenantsSnapshot": true,
			"ObserveOp":     true,
			"RecordAnomaly": true, "Anomalies": true,
		},
		reflect.TypeOf((*Counter)(nil)):   {"Inc": true, "Add": true, "Load": true},
		reflect.TypeOf((*Gauge)(nil)):     {"Set": true, "Add": true, "Load": true},
		reflect.TypeOf((*Histogram)(nil)): {"Observe": true, "ObserveValue": true, "ObserveExemplar": true, "Time": true, "Snapshot": true},
		reflect.TypeOf((*Trace)(nil)):     {"Mark": true, "Elapsed": true, "Snapshot": true, "Finish": true},
	}
	for typ, methods := range covered {
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Method(i).Name
			if !methods[name] {
				t.Errorf("%s.%s is exported but missing from the nil-safety audit", typ, name)
			}
		}
	}
}
