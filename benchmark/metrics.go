package main

// metricSpec declares one metric: its name (final — later performance
// claims cite it), unit, which direction is better and, for end-to-end
// metrics, the share of the parent's median by which it may worsen before
// a change counts as a regression.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees, defined on every workload
// (BENCHMARK.json requires each run to report all of them, never 0):
//
//   - write_visible_ms is the producer-visible call: Client.Write on the
//     pipelines (the paper's visible I/O time), Session.Ingest on
//     serve-mixed.
//   - query_p50_us / query_p95_us are the latency of getting one result
//     out: a first-touch Query/Reduce on serve-mixed; on the pipelines,
//     where the standing query is the operator, a dump's staging
//     turnaround (slowest staging rank's gather+aggregate+process, the
//     paper's Fig. 7 "ST latency").
//
// fail_ratio is not here because it must be 0: failures travel in the
// result line's attempted/failed counts and the ledger's fail_ratio row.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_mbps", "MB/s", "higher", 0.25},
	{"write_visible_ms", "ms", "lower", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"query_p95_us", "us", "lower", 0.25},
	{"cpu_s_per_gb", "s/GB", "lower", 0.25},
	{"alloc_amplification", "B/B", "lower", 0.05},
}

// perLayer is the ledger BENCHMARK.json declares. Every workload reports
// every row; a row whose layer is not on the workload's path reads 0
// (shares, counts and rates only — see ledgerOnly for the times).
var perLayer = []metricSpec{
	{"predata.gather_share", "ratio", "lower", 0},
	{"predata.aggregate_share", "ratio", "lower", 0},
	{"predata.process_share", "ratio", "lower", 0},
	{"predata.unattributed_share", "ratio", "lower", 0},
	{"predata.client_pack_mbps", "MB/s", "higher", 0},

	{"staging.map_share", "ratio", "lower", 0},
	{"staging.combine_share", "ratio", "lower", 0},
	{"staging.shuffle_share", "ratio", "lower", 0},
	{"staging.reduce_share", "ratio", "lower", 0},
	{"staging.finalize_share", "ratio", "lower", 0},
	{"staging.movement_share", "ratio", "lower", 0},
	{"staging.seal_mbps", "MB/s", "higher", 0},
	{"staging.unseal_mbps", "MB/s", "higher", 0},
	{"staging.decode_chunk_mbps", "MB/s", "higher", 0},
	{"staging.engine_mbps", "MB/s", "higher", 0},

	{"ffs.encode_mbps", "MB/s", "higher", 0},
	{"ffs.encode_alloc_amplification", "B/B", "lower", 0},
	{"ffs.decode_mbps", "MB/s", "higher", 0},
	{"ffs.decode_alloc_amplification", "B/B", "lower", 0},

	{"fabric.pull_mbps", "MB/s", "higher", 0},
	{"fabric.pull_contended_mbps", "MB/s", "higher", 0},
	{"fabric.ctl_roundtrip_ns", "ns", "lower", 0},
	{"fabric.pulled_bytes", "B", "lower", 0},

	{"evpath.hop_ns", "ns", "lower", 0},
	{"evpath.events_per_s", "1/s", "higher", 0},

	{"mpi.allgather_us", "us", "lower", 0},
	{"mpi.alltoall_mbps", "MB/s", "higher", 0},
	{"mpi.barrier_us", "us", "lower", 0},

	{"ops.map_s_per_gb", "s/GB", "lower", 0},
	{"ops.reduce_s_per_gb", "s/GB", "lower", 0},
	{"ops.finalize_s_per_gb", "s/GB", "lower", 0},

	{"bp.writepg_mbps", "MB/s", "higher", 0},
	{"bp.readvar_mbps", "MB/s", "higher", 0},
	{"pfs.append_mbps", "MB/s", "higher", 0},

	{"wal.append_mbps", "MB/s", "higher", 0},
	{"wal.commit_us", "us", "lower", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"wal.recover_mbps", "MB/s", "higher", 0},
	{"wal.journal_share", "ratio", "lower", 0},
	{"wal.bytes_per_payload_byte", "B/B", "lower", 0},

	{"flowctl.acquire_release_ns", "ns", "lower", 0},
	{"flowctl.fairshare_acquire_ns", "ns", "lower", 0},
	{"flowctl.throttle_waits", "count", "lower", 0},
	{"flowctl.spilled_chunks", "count", "lower", 0},
	{"flowctl.utilization_peak", "ratio", "lower", 0},

	{"dataspaces.put_mbps", "MB/s", "higher", 0},
	{"dataspaces.get_mbps", "MB/s", "higher", 0},
	{"dataspaces.reduce_mcells_s", "Mcells/s", "higher", 0},
	{"dataspaces.put_allocs_per_op", "count", "lower", 0},
	{"dataspaces.evict_us", "us", "lower", 0},

	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.admission_waits", "count", "lower", 0},
	{"serve.queries_per_s", "1/s", "higher", 0},

	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.dropped_events", "count", "lower", 0},

	{"runtime.mallocs_per_mb", "1/MB", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.peak_heap_mb", "MB", "lower", 0},

	{"reference.direct_mbps", "MB/s", "higher", 0},
}

// ledgerOnly rows go to the table and the result file but not to
// BENCHMARK.json, each for one of three reasons: the contract wants every
// declared row on every workload and a time that does not exist there
// cannot honestly be reported (the predata, serve, pull and throttle
// times); the row is a modeled time that repeats exactly, which the
// driver rejects as a measurement (pfs.modeled_write_s); or it must be 0
// (fail_ratio). predata.dump_wall_p95_ms and serve.ingest_p50_ms repeat
// query_p95_us and write_visible_ms under the names the issue fixed.
var ledgerOnly = []metricSpec{
	{"fail_ratio", "ratio", "lower", 0},
	{"predata.dump_wall_p95_ms", "ms", "lower", 0},
	{"predata.write_visible_p95_ms", "ms", "lower", 0},
	{"fabric.pull_modeled_s", "s", "lower", 0},
	{"fabric.pull_busy_s", "s", "lower", 0},
	{"flowctl.throttle_s", "s", "lower", 0},
	{"pfs.modeled_write_s", "s", "lower", 0},
	{"serve.ingest_p50_ms", "ms", "lower", 0},
	{"serve.ingest_p99_ms", "ms", "lower", 0},
	{"serve.query_p99_us", "us", "lower", 0},
	{"serve.query_p999_us", "us", "lower", 0},
	{"serve.cache_hit_p50_us", "us", "lower", 0},
}

// specOf finds a metric's declaration in any of the three tables.
func specOf(name string) (metricSpec, bool) {
	for _, table := range [][]metricSpec{endToEnd, perLayer, ledgerOnly} {
		for _, s := range table {
			if s.Name == name {
				return s, true
			}
		}
	}
	return metricSpec{}, false
}
