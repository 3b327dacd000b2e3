package main

import (
	"math"

	"sedna/internal/obs"
	"sedna/internal/ring"
)

// tracedRun is everything a traced run hands to perLayerMetrics.
type tracedRun struct {
	plain, traced *phaseStats        // the untraced reference part and the traced part of the window
	spans         []span             // of the traced part, all five processes
	delta         map[string]float64 // public stats counters over the traced part, three nodes summed
	after         obs.Snapshot       // public stats at the end of the window
	live          *ring.Ring
	recoverS      float64 // mean WAL replay time of the crash check; 0 without one
	liveUserBytes int64   // key + value bytes of one copy of the live data set
}

// perLayerMetrics fills in every per-layer metric, zero where the workload
// does not exercise the layer. Three sources, all outside the program: the
// seam spans, counts over the window (the seams' own, and deltas of the
// public stats RPC only where no seam exists), and probes.
func perLayerMetrics(res *runResult, r *runner, t tracedRun, probeDir string) error {
	plain, traced := t.plain, t.traced
	tr := buildTrace(t.spans, r.cl.coord.spec.addr)
	b := analyse(tr)
	ops := float64(max(b.ops, 1))

	med := func(name string) {
		res.add(name, us(median(b.s[name])), len(b.s[name]))
	}
	ratio := func(name string, num, den float64, n int) {
		v := 0.0
		if den != 0 {
			v = num / den
		}
		res.add(name, v, n)
	}
	count := func(name, counter string) { res.add(name, t.delta[counter], 1) }

	// user-visible, from the untraced part
	_, w99, wn := latency(plain, opWrite, opMSet)
	_, r99, rn := latency(plain, opRead, opMGet)
	res.add("write_p99_ms", w99, wn)
	res.add("read_p99_ms", r99, rn)
	res.add("event_lag_p50_ms", ms(median(plain.eventLags)), len(plain.eventLags))
	res.add("event_lag_p99_ms", ms(p99(plain.eventLags)), len(plain.eventLags))
	ratio("slo_ok_ratio", float64(plain.withinSLO), float64(plain.attempted), plain.attempted)
	ratio("fail_ratio", float64(plain.failed), float64(plain.attempted), plain.attempted)

	med("client.op_self_us")
	ratio("client.rpcs_per_op", float64(b.calls.client), ops, b.ops)

	med("transport.client_hop_us")
	med("transport.replica_hop_us")
	ratio("transport.frames_per_flush", t.delta["transport.frames_out"], t.delta["transport.flushes"], int(t.delta["transport.flushes"]))
	res.add("transport.dispatch_sheds", float64(t.after.Counters["transport.stage.dispatch.sheds"]), 1)

	for _, h := range []string{"coord_write", "coord_read", "coord_wbatch", "coord_rbatch", "replica_write", "replica_read", "replica_wbatch", "replica_rbatch"} {
		med("core." + h + "_self_us")
	}

	med("quorum.write_wait_us")
	med("quorum.read_wait_us")
	med("quorum.straggler_us")
	ratio("quorum.replica_calls_per_op", float64(b.calls.replica), float64(b.calls.coordHandlers), b.calls.coordHandlers)
	count("quorum.retries", "quorum.retries")
	count("quorum.read_repairs", "quorum.read_repairs")

	res.add("wal.fsync_us_p50", us(median(b.syncs)), len(b.syncs))
	res.add("wal.fsync_us_p99", us(p99(b.syncs)), len(b.syncs))
	ratio("wal.fsyncs_per_write", float64(len(b.syncs)), t.delta["core.replica_writes"], int(t.delta["core.replica_writes"]))
	med("wal.fsync_wait_us")
	ratio("wal.write_bytes_per_user_byte", float64(b.vfsWriteBytes), float64(traced.userBytes), traced.ackedKeys)
	res.add("persist.recover_s", t.recoverS, 1)

	ratio("memstore.bytes_per_user_byte", float64(t.after.Gauges["memstore.bytes"]), float64(t.liveUserBytes), 1)
	res.add("memstore.evictions", float64(t.after.Counters["memstore.evictions"]), 1)

	ratio("trigger.events_per_write", float64(traced.eventsTotal), float64(traced.ackedKeys), traced.ackedKeys)
	ratio("trigger.poll_rpcs_per_event", float64(b.calls.poll), float64(traced.eventsTotal), traced.eventsTotal)
	ratio("trigger.scans_per_s", t.delta["trigger.scans"], traced.elapsed.Seconds(), 1)
	count("trigger.coalesced", "trigger.coalesced")

	ratio("coord.rpcs_per_op", float64(b.calls.coordServed), ops, b.ops)
	ratio("coord.cpu_share", float64(plain.coordCPU), float64(plain.cluster.cpu), 1)

	okOps := float64(plain.ok())
	ratio("proc.server_cpu_ms_per_op", ms(float64(plain.cluster.cpu)), okOps, plain.ok())
	ratio("proc.driver_cpu_ms_per_op", ms(float64(plain.driver.cpu)), okOps, plain.ok())
	ratio("proc.server_ctxsw_per_op", float64(plain.cluster.ctxsw), okOps, plain.ok())
	res.add("proc.server_rss_mb", float64(plain.cluster.rssKiB)/1024, 1)

	// validity of the numbers above
	if r.spec.open {
		// The open loop's rate is fixed, so overhead shows in latency.
		ratio("trace.overhead_ratio", allOpsMedian(plain), allOpsMedian(traced), traced.ok())
	} else {
		ratio("trace.overhead_ratio", float64(traced.ok())/traced.elapsed.Seconds(), okOps/plain.elapsed.Seconds(), traced.ok())
	}
	m := tr.match
	ratio("trace.unmatched_ratio", float64(m.calls+m.serves-2*m.matched), float64(m.calls+m.serves), m.calls+m.serves)
	ratio("trace.ambiguous_ratio", float64(m.ambiguous), float64(m.matched), m.matched)
	worstUS, worstShare, n := 0.0, 0.0, 0
	for k := range b.opDur {
		if len(b.opDur[k]) == 0 {
			continue
		}
		un, dur := median(b.opUnattributed[k]), median(b.opDur[k])
		if share := math.Abs(un) / dur; share >= worstShare {
			worstUS, worstShare, n = us(un), share, len(b.opDur[k])
		}
	}
	res.add("trace.unattributed_us", worstUS, n)
	res.add("trace.unattributed_ratio", worstShare, n)
	res.add("gen.late_p99_ms", ms(p99(plain.late)), len(plain.late))

	return r.runProbes(probeDir, t.live, res.add)
}

// allOpsMedian is the median latency over every op of a phase, whatever its kind.
func allOpsMedian(p *phaseStats) float64 {
	var all []int64
	for _, l := range p.lat {
		all = append(all, l...)
	}
	return median(all)
}
