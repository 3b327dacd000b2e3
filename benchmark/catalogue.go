package main

// metricDef is a metric's unit, which direction is an improvement, and
// whether it is one of the end-to-end metrics. BENCHMARK.json repeats all
// three for the driver; a unit test keeps the two equal.
type metricDef struct {
	unit     string
	better   string
	endToEnd bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// catalogue names every metric the benchmark reports. README.md says what
// each one measures and which end-to-end metric it should move.
//
// End-to-end metrics are what a user of the cluster sees. They are measured
// with tracing off and reported by every workload: "write" is the
// workload's mutating call (WriteLatest, or MSet of 16 on batch_16) and
// "read" its fetching call (ReadLatest, or MGet of 16).
//
// Everything else is reported by a traced run. Per-layer names start with
// the internal/ package they describe.
var catalogue = map[string]metricDef{
	"setup_s":                  {"s", lower, true},
	"ops_s":                    {"1/s", higher, true},
	"write_p50_ms":             {"ms", lower, true},
	"read_p50_ms":              {"ms", lower, true},
	"cpu_ms_per_op":            {"ms", lower, true},
	"disk_bytes_per_user_byte": {"ratio", lower, true},

	// User-visible too, but demoted: the 99th percentiles do not repeat
	// within a quarter from run to run on the reference sandbox, the others
	// are not defined on every workload or are zero on a healthy run, which
	// an end-to-end metric of the contract may not be. Measured on the
	// untraced part of a traced run.
	"write_p99_ms":     {"ms", lower, false},
	"read_p99_ms":      {"ms", lower, false},
	"event_lag_p50_ms": {"ms", lower, false},
	"event_lag_p99_ms": {"ms", lower, false},
	"slo_ok_ratio":     {"ratio", higher, false},
	"fail_ratio":       {"ratio", lower, false},

	"client.op_self_us":  {"us", lower, false},
	"client.rpcs_per_op": {"ratio", lower, false},

	"transport.client_hop_us":        {"us", lower, false},
	"transport.replica_hop_us":       {"us", lower, false},
	"transport.echo_rtt_us":          {"us", lower, false},
	"transport.echo_allocs_per_call": {"count", lower, false},
	"transport.frames_per_flush":     {"ratio", higher, false},
	"transport.dispatch_sheds":       {"count", lower, false},

	"core.coord_write_self_us":    {"us", lower, false},
	"core.coord_read_self_us":     {"us", lower, false},
	"core.coord_wbatch_self_us":   {"us", lower, false},
	"core.coord_rbatch_self_us":   {"us", lower, false},
	"core.replica_write_self_us":  {"us", lower, false},
	"core.replica_read_self_us":   {"us", lower, false},
	"core.replica_wbatch_self_us": {"us", lower, false},
	"core.replica_rbatch_self_us": {"us", lower, false},

	"quorum.write_wait_us":        {"us", lower, false},
	"quorum.read_wait_us":         {"us", lower, false},
	"quorum.straggler_us":         {"us", lower, false},
	"quorum.replica_calls_per_op": {"ratio", lower, false},
	"quorum.retries":              {"count", lower, false},
	"quorum.read_repairs":         {"count", lower, false},

	"wal.fsync_us_p50":              {"us", lower, false},
	"wal.fsync_us_p99":              {"us", lower, false},
	"wal.fsyncs_per_write":          {"ratio", lower, false},
	"wal.fsync_wait_us":             {"us", lower, false},
	"wal.write_bytes_per_user_byte": {"ratio", lower, false},
	"wal.append_sync_us":            {"us", lower, false},
	"persist.log_write_us":          {"us", lower, false},
	"persist.recover_s":             {"s", lower, false},

	"memstore.get_ns":              {"ns", lower, false},
	"memstore.update_ns":           {"ns", lower, false},
	"memstore.allocs_per_update":   {"count", lower, false},
	"memstore.bytes_per_user_byte": {"ratio", lower, false},
	"memstore.evictions":           {"count", lower, false},

	"kv.encode_row_ns":           {"ns", lower, false},
	"kv.decode_row_ns":           {"ns", lower, false},
	"kv.apply_causal_ns":         {"ns", lower, false},
	"kv.row_bytes_per_user_byte": {"ratio", lower, false},

	"ring.owners_ns": {"ns", lower, false},

	// 1.0 is exactly once at this subscriber; below it a run fails.
	"trigger.events_per_write":    {"ratio", lower, false},
	"trigger.poll_rpcs_per_event": {"ratio", lower, false},
	"trigger.scans_per_s":         {"1/s", lower, false},
	"trigger.coalesced":           {"count", lower, false},

	"coord.rpcs_per_op": {"ratio", lower, false},
	"coord.cpu_share":   {"ratio", lower, false},

	"proc.server_cpu_ms_per_op": {"ms", lower, false},
	"proc.driver_cpu_ms_per_op": {"ms", lower, false},
	"proc.server_ctxsw_per_op":  {"count", lower, false},
	"proc.server_rss_mb":        {"MiB", lower, false},

	// validity of the numbers above
	"trace.overhead_ratio":     {"ratio", higher, false},
	"trace.unmatched_ratio":    {"ratio", lower, false},
	"trace.ambiguous_ratio":    {"ratio", lower, false},
	"trace.unattributed_us":    {"us", lower, false},
	"trace.unattributed_ratio": {"ratio", lower, false},
	"gen.late_p99_ms":          {"ms", lower, false},
}
