package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"sedna/internal/obs"
)

// setupRepeats is how many times an untraced run sets a cluster up: boot,
// readiness barrier, preload. setup_s is the median, the last cluster is the
// one measured, the others are torn down at once.
const setupRepeats = 3

// setUp boots a fresh cluster, connects the driver and preloads. It returns
// how long that took from the first process start.
func setUp(spec *workloadSpec, seed int64, tmp string, rec *recorder) (*runner, time.Duration, error) {
	cl, err := startCluster(tmp, rec != nil)
	if err != nil {
		return nil, 0, err
	}
	logf("cluster ready after %s", time.Since(cl.began))
	r, err := newRunner(spec, seed, cl, rec)
	if err == nil {
		err = r.preload()
	}
	logf("preloaded after %s", time.Since(cl.began))
	if err != nil {
		cl.close()
		return nil, 0, err
	}
	return r, time.Since(cl.began), nil
}

// runWorkload is one run: set-up, warm-up, the measured window, then the
// correctness checks. Untraced it yields the end-to-end metrics. Traced it
// splits the window into an untraced reference part and a traced part on the
// same cluster, and yields the per-layer metrics.
func runWorkload(spec *workloadSpec, seed int64, seconds int, trace bool, tmp string) (*runResult, error) {
	res := newRunResult(spec.name, seed, seconds, trace)
	var rec *recorder
	if trace {
		rec = newRecorder("driver")
	}

	repeats := setupRepeats
	if trace {
		repeats = 1 // setup_s is an end-to-end metric; a traced run reports none
	}
	var setups []float64
	var r *runner
	for i := 0; i < repeats; i++ {
		if r != nil {
			r.close()
		}
		var took time.Duration
		var err error
		if r, took, err = setUp(spec, seed, tmp, rec); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() { r.close() }()
	if spec.open {
		if err := r.subscribe(); err != nil {
			return nil, err
		}
	}
	if _, err := r.phase(warmup); err != nil {
		return nil, err
	}

	window := time.Duration(seconds) * time.Second
	t := tracedRun{}
	var plain *phaseStats
	var err error
	if !trace {
		if plain, err = r.phase(window); err != nil {
			return nil, err
		}
	} else if err = r.tracedWindow(window, &t); err != nil {
		return nil, err
	} else {
		plain = t.plain
	}
	statsAfter, err := r.fetchStats()
	if err != nil {
		return nil, err
	}

	// Correctness: what was acknowledged is what is read back, before and,
	// where the workload asks for it, after a crash of all three nodes.
	sample := 10 // 1,000 of the 10,000 keys
	if spec.crashCheck {
		sample = 1
	}
	problems := r.verify(sample)
	if spec.crashCheck {
		if err := r.cl.crashNodes(); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		for _, p := range r.verify(sample) {
			problems = append(problems, "after crash: "+p)
		}
		recovered, err := r.fetchStats()
		if err != nil {
			return nil, err
		}
		t.recoverS = float64(recovered.Gauges["persist.recovery_ms"]) / 1000 / dataNodes
	}
	for _, p := range problems {
		res.problem("%s", p)
	}
	for _, p := range []*phaseStats{plain, t.traced} {
		if p == nil {
			continue
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.wrongReads > 0 {
			res.problem("%d reads returned a value that does not name their key", p.wrongReads)
		}
		if spec.open && p.eventsDistinct < p.ackedKeys {
			res.problem("subscriber received events for %d of %d acknowledged posts", p.eventsDistinct, p.ackedKeys)
		}
	}
	if n := statsAfter.Counters["memstore.evictions"]; n != 0 {
		res.problem("memstore evicted %d items: in this design that is data loss, the workload must fit", n)
	}
	if n := statsAfter.Counters["transport.stage.dispatch.sheds"]; n != 0 {
		res.problem("transport shed %d requests: the cluster was overloaded", n)
	}

	if !trace {
		endToEndMetrics(res, plain, medianFloat(setups))
		return res, nil
	}
	t.after = statsAfter
	if t.live, err = fetchRing(r.tcp, r.cl.nodes[0].spec.addr); err != nil {
		return nil, err
	}
	t.liveUserBytes = r.liveUserBytes()
	// The probes want the two cores to themselves.
	r.close()
	return res, perLayerMetrics(res, r, t, filepath.Join(tmp, "probes"))
}

// tracedWindow runs the first two thirds of the window untraced, as the
// reference, then the last third traced on the same cluster, and collects
// every process's spans. The reference gets the larger share because the
// 99th percentiles it reports need a thousand samples each.
func (r *runner) tracedWindow(window time.Duration, t *tracedRun) (err error) {
	if t.plain, err = r.phase(window * 2 / 3); err != nil {
		return err
	}
	before, err := r.fetchStats()
	if err != nil {
		return err
	}
	if err = r.cl.setTracing(true); err != nil {
		return err
	}
	r.rec.on.Store(true)
	t.traced, err = r.phase(window / 3)
	r.rec.on.Store(false)
	if err == nil {
		err = r.cl.setTracing(false)
	}
	if err != nil {
		return err
	}
	after, err := r.fetchStats()
	if err != nil {
		return err
	}
	t.delta = counterDelta(before, after)
	if t.spans, err = r.cl.collectSpans(); err != nil {
		return err
	}
	t.spans = append(t.spans, r.rec.take()...)
	return nil
}

// fetchStats merges the three nodes' public stats reports.
func (r *runner) fetchStats() (obs.Snapshot, error) {
	var total obs.Snapshot
	for _, addr := range r.cl.nodeAddrs() {
		st, err := r.cli.FetchStats(context.Background(), addr)
		if err != nil {
			return total, fmt.Errorf("stats of %s: %w", addr, err)
		}
		total = total.Merge(st.Snapshot)
	}
	return total, nil
}

func counterDelta(before, after obs.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after.Counters {
		out[k] = float64(v) - float64(before.Counters[k])
	}
	return out
}

func ms(ns float64) float64 { return ns / 1e6 }

// latency reports the median and 99th percentile of the "write" or "read"
// side of a phase, in ms: the single-key and the batch call never occur
// together. The 99th percentile is 0 unless enough samples lie beyond it.
func latency(p *phaseStats, single, batch opKind) (p50ms, p99ms float64, n int) {
	samples := p.lat[single]
	if len(samples) == 0 {
		samples = p.lat[batch]
	}
	return ms(median(samples)), ms(p99(samples)), len(samples)
}

func endToEndMetrics(res *runResult, p *phaseStats, setupS float64) {
	res.add("setup_s", setupS, setupRepeats)
	res.add("ops_s", float64(p.ok())/p.elapsed.Seconds(), p.ok())
	w50, _, wn := latency(p, opWrite, opMSet)
	res.add("write_p50_ms", w50, wn)
	r50, _, rn := latency(p, opRead, opMGet)
	res.add("read_p50_ms", r50, rn)
	res.add("cpu_ms_per_op", ms(float64(p.cluster.cpu))/float64(p.ok()), p.ok())
	res.add("disk_bytes_per_user_byte", float64(p.diskGrowth)/float64(p.userBytes), p.ackedKeys)
}
