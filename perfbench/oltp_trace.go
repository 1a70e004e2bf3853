package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/unidb"
)

// tracedOps issues the oltp operations through Core() and the stores'
// public functions over a tracing engine.Tx, timing every call.
type tracedOps struct {
	db *unidb.Database
	tr *tracer
}

// view runs fn as one traced read operation.
func (t tracedOps) view(fn func(o *op, tx engine.Tx) error) error {
	o := t.tr.begin()
	return t.db.Core().View(func(tx engine.Tx) error { return fn(o, o.wrap(tx)) })
}

func (t tracedOps) cart(c int) (string, bool, error) {
	var v mmvalue.Value
	var ok bool
	err := t.view(func(o *op, tx engine.Tx) error {
		var err error
		o.call("kvstore.get", func() { v, ok, err = t.db.Core().KV.Get(tx, "cart", custKey(c)) })
		return err
	})
	return v.AsString(), ok, err
}

func (t tracedOps) order(key string) (doc mmvalue.Value, ok bool, err error) {
	err = t.view(func(o *op, tx engine.Tx) error {
		var err error
		o.call("docstore.get", func() { doc, ok, err = t.db.Core().Docs.Get(tx, "orders", key) })
		return err
	})
	return doc, ok, err
}

func (t tracedOps) customer(c int) (row mmvalue.Value, ok bool, err error) {
	err = t.view(func(o *op, tx engine.Tx) error {
		var err error
		o.call("relstore.get", func() { row, ok, err = t.db.Core().Rels.Get(tx, "customers", mmvalue.Int(int64(c))) })
		return err
	})
	return row, ok, err
}

func (t tracedOps) neighbors(c int) ([]string, error) {
	var keys []string
	err := t.view(func(o *op, tx engine.Tx) error {
		var err error
		o.callAlloc("graphstore.neighbors", func() {
			ns, nerr := t.db.Core().Graphs.Neighbors(tx, "social", custKey(c), unidb.Outbound, "knows")
			err = nerr
			for _, n := range ns {
				keys = append(keys, n.VertexKey)
			}
		})
		return err
	})
	return keys, err
}

// newOrderRetries matches the engine's Update: a transaction that
// deadlocks is retried up to this many times in all.
const newOrderRetries = 8

// newOrder runs the transaction by hand, so that Commit goes through the
// tracing wrapper too.
func (t tracedOps) newOrder(n newOrder) (int64, error) {
	db := t.db.Core()
	o := t.tr.begin()
	var lastErr error
	for attempt := 0; attempt < newOrderRetries; attempt++ {
		tx, err := db.BeginTx()
		if err != nil {
			return 0, err
		}
		w := o.wrap(tx)
		credit, err := newOrderBody(w, db, n, func(name string, fn func()) { o.call(name, fn) })
		if err == nil {
			return credit, w.Commit()
		}
		if aerr := tx.Abort(); aerr != nil {
			return 0, errors.Join(err, aerr)
		}
		if !errors.Is(err, engine.ErrDeadlock) {
			return 0, err
		}
		lastErr = err
	}
	return 0, lastErr
}

// traceOLTP runs the single-client traced variant: the workload through
// the public API and traced, alternately, each for half the measured time.
// Runtime counters come from the untraced half; the WAL and shard counters
// count both, which commit through the same path.
func traceOLTP(cfg config, rep *report, db *unidb.Database, dir string, ds *dataset) error {
	h := newHistory(ds)
	plain := newOLTPClient(0, plainOps{db}, h, ds, cfg.seed)
	tr := newTracer()
	traced := newOLTPClient(1, tracedOps{db: db, tr: tr}, h, ds, cfg.seed)
	wal0, sh0, bytes0 := db.WALStats(), db.ShardStats(), dirBytes(dir)
	csr0 := db.CSRStats()
	var d rtDelta
	interleave(cfg.measure, func(s time.Duration) {
		measured(&d, func() { plain.runFor(time.Now(), s) })
	}, func(s time.Duration) { traced.runFor(time.Now(), s) })
	wal1, sh1, bytes1 := db.WALStats(), db.ShardStats(), dirBytes(dir)
	csr1 := db.CSRStats()

	clients := []*oltpClient{plain, traced}
	for _, c := range clients {
		rep.attempted += c.reads + c.txns + c.fail
		rep.failed += c.fail
		for e, n := range c.errs {
			fmt.Printf("oltp error x%d: %s\n", n, e)
		}
		for _, b := range c.bad {
			rep.check(false, "%s", b)
		}
		for _, o := range c.obs {
			rep.check(h.valid(o), "read of %s returned %q, not an acknowledged value", custKey(o.cust), o.val)
		}
	}
	checkFinal(db, ds, h, rep, "live database")
	checkStoreCalls(rep, tr, traced)

	for _, name := range []string{"docstore.get", "docstore.insert", "relstore.get", "relstore.update",
		"kvstore.get", "kvstore.set", "graphstore.neighbors", "rdfstore.insert"} {
		rep.layer(name+"_us", tr.agg(name).selfPerCallUS(), "us")
	}
	nb := tr.agg("graphstore.neighbors")
	rep.layer("graphstore.neighbors.alloc_bytes_per_call", nb.allocBytes/float64(max(nb.allocCalls, 1)), "B")
	tracedOps := float64(max(traced.reads+traced.txns, 1))
	engineMetrics(rep, tr, tracedOps)

	commits := float64(max(plain.txns+traced.txns, 1))
	records := float64((wal1.Appends + wal1.BatchedAppends) - (wal0.Appends + wal0.BatchedAppends))
	rep.layer("wal.records_per_commit", records/commits, "count")
	rep.layer("wal.bytes_per_commit", float64(bytes1-bytes0)/commits, "B")
	rep.layer("wal.fsyncs_per_commit", float64(wal1.Fsyncs-wal0.Fsyncs)/commits, "count")
	plainOps := float64(max(plain.reads+plain.txns, 1))
	allOps := plainOps + tracedOps
	rep.layer("shard.fanouts_per_op", float64(sh1.ShardFanouts-sh0.ShardFanouts)/allOps, "count")
	rep.layer("shard.cross_shard_txn_share", float64(sh1.CrossShardTxns-sh0.CrossShardTxns)/commits, "ratio")
	rep.layer("shard.prepares_per_txn", float64(sh1.PreparedTxns-sh0.PreparedTxns)/commits, "count")
	rep.layer("csr.builds", float64(csr1.Builds-csr0.Builds), "count")
	rep.layer("csr.reuses", float64(csr1.Reuses-csr0.Reuses), "count")
	rep.layer("gc.cpu_share", d.gcCPUShare(), "ratio")
	rep.layer("gc.cycles_per_kop", d.gcCycles/plainOps*1000, "count")
	rep.layer("trace.overhead_share", classWeighted(traced.samples, 0.5)/classWeighted(plain.samples, 0.5)-1, "ratio")
	rep.set("untraced.read_p50_us", percentile(plain.readLat, 0.5), "us")
	rep.set("traced.read_p50_us", percentile(traced.readLat, 0.5), "us")
	rep.set("untraced.txn_p50_us", percentile(plain.txnLat, 0.5), "us")
	rep.set("traced.txn_p50_us", percentile(traced.txnLat, 0.5), "us")
	return tr.writeSpans(traceFile(cfg))
}

// checkStoreCalls asserts that the traced phase made, per operation class,
// exactly the store calls the public-API path makes.
func checkStoreCalls(rep *report, tr *tracer, traced *oltpClient) {
	want := map[string]int{}
	for class, n := range traced.classes {
		for _, name := range storeCalls[class] {
			want[name] += n
		}
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got := tr.agg(name).calls
		rep.check(got == want[name], "traced %s calls = %d, the untraced path makes %d", name, got, want[name])
	}
}
