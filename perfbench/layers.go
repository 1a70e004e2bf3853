package main

// layerMetrics is every per-layer metric a traced run prints, with its
// unit. A layer a workload does not exercise reports 0 (shard counters off
// the sharded workload, WAL counters on the in-memory one, and so on).
var layerMetrics = []struct{ name, unit string }{
	{"core.prepare_us", "us"},
	{"core.plancache.hit_rate", "ratio"},
	{"query.exec_ms.q1", "ms"},
	{"query.exec_ms.q2", "ms"},
	{"query.exec_ms.q3", "ms"},
	{"query.exec_ms.q4", "ms"},
	{"query.exec_ms.q5", "ms"},
	{"query.rows_read_per_result.q1", "count"},
	{"query.rows_read_per_result.q2", "count"},
	{"query.rows_read_per_result.q3", "count"},
	{"query.rows_read_per_result.q4", "count"},
	{"query.rows_read_per_result.q5", "count"},
	{"query.index_scans", "count"},
	{"query.full_scans", "count"},
	{"query.snapshot_reads", "count"},
	{"query.csr_traversals", "count"},
	{"query.vectorized_batches", "count"},
	{"query.parallel_scans", "count"},
	{"docstore.get_us", "us"},
	{"docstore.insert_us", "us"},
	{"relstore.get_us", "us"},
	{"relstore.update_us", "us"},
	{"kvstore.get_us", "us"},
	{"kvstore.set_us", "us"},
	{"graphstore.neighbors_us", "us"},
	{"rdfstore.insert_us", "us"},
	{"graphstore.neighbors.alloc_bytes_per_call", "B"},
	{"engine.get.calls", "count"},
	{"engine.get_us", "us"},
	{"engine.scan.calls", "count"},
	{"engine.scan.rows_per_call", "count"},
	{"engine.scan.alloc_bytes_per_row", "B"},
	{"engine.scan_us", "us"},
	{"engine.put.calls", "count"},
	{"engine.commit_us", "us"},
	{"wal.records_per_commit", "count"},
	{"wal.bytes_per_commit", "B"},
	{"wal.fsyncs_per_commit", "count"},
	{"shard.fanouts_per_op", "count"},
	{"shard.cross_shard_txn_share", "ratio"},
	{"shard.prepares_per_txn", "count"},
	{"csr.builds", "count"},
	{"csr.reuses", "count"},
	{"gc.cpu_share", "ratio"},
	{"gc.cycles_per_kop", "count"},
	{"trace.overhead_share", "ratio"},
}

// fillLayers reports 0 for every per-layer metric the run did not set.
func fillLayers(rep *report) {
	for _, m := range layerMetrics {
		if _, ok := rep.vals[m.name]; !ok {
			rep.layer(m.name, 0, m.unit)
		}
	}
}
