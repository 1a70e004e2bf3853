package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/unidb"
)

// htap: one closed-loop query client beside an open-loop writer issuing
// new-order transactions at a fixed rate, on a Buffered data directory.

// htapWriteRate is the writer's schedule in transactions per second, below
// the roughly 60 txn/s one closed-loop writer sustains on the small dataset
// beside the query client.
const htapWriteRate = 40

// openWriter issues new-order transactions on a fixed schedule until stop
// is closed, timing each from when it was due.
type openWriter struct {
	ops  oltpOps
	h    *history
	ds   *dataset
	r    *rand.Rand
	acks []newOrder // acknowledged, in order
	next int        // transactions issued, across runs

	samples  []sample
	lat, lag []float64 // microseconds
	ok, fail int
	errs     map[string]int
}

func (w *openWriter) run(stop <-chan struct{}) {
	interval := time.Second / htapWriteRate
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		w.lag = append(w.lag, durUS(time.Since(due)))
		w.next++
		no := newOrder{Key: fmt.Sprintf("h%d", w.next), Customer: w.r.Intn(len(w.ds.Customers)),
			Product: prodKey(w.r.Intn(len(w.ds.Products))), Price: int64(1 + w.r.Intn(100))}
		begin := w.h.now()
		credit, err := w.ops.newOrder(no)
		if err != nil {
			w.fail++
			w.errs["neworder: "+err.Error()]++
			continue
		}
		w.lat = append(w.lat, durUS(time.Since(due)))
		w.samples = append(w.samples, sample{w.lat[len(w.lat)-1], "neworder"})
		w.ok++
		w.h.ack(no, credit, begin)
		w.acks = append(w.acks, no)
	}
}

// runBeside runs fn while the writer runs, then stops the writer and
// waits for it.
func (w *openWriter) runBeside(fn func()) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.run(stop)
	}()
	fn()
	close(stop)
	wg.Wait()
}

func runHTAP(cfg config, rep *report) error {
	ds := generate(smallData, cfg.seed)
	qs := &querySet{dom: queryDomains(ds, cfg.seed)}
	db, _, setup, err := setUp(cfg.work, func(dir string) (*unidb.Database, error) {
		db, err := openOLTP(dir, 0)
		if err != nil {
			return nil, err
		}
		if err := load(db, ds); err != nil {
			db.Close()
			return nil, err
		}
		qs.digests = checkQueries(db, ds, qs.dom, rep, "warm-up")
		return db, nil
	})
	if err != nil {
		return err
	}
	defer db.Close()
	h := newHistory(ds)
	w := &openWriter{ops: plainOps{db}, h: h, ds: ds, r: rand.New(rand.NewSource(cfg.seed * 17)), errs: map[string]int{}}
	if cfg.trace {
		if err := traceHTAP(cfg, rep, db, qs, w); err != nil {
			return err
		}
	} else {
		rep.e2e("setup_s", setup, "s")
		rep.e2e("heap_mb", liveHeapMB(), "MB")
		c := newQueryClient(db, qs, cfg.seed, false)
		rt0 := readRuntime()
		start := time.Now()
		w.runBeside(func() { c.runFor(start, cfg.measure) })
		elapsed := time.Since(start)
		d := rt0.to(readRuntime())
		all := reportQueries(rep, c)
		rep.attempted = c.ok + c.fail + w.ok + w.fail
		rep.failed = c.fail + w.fail
		for e, n := range w.errs {
			fmt.Printf("htap writer error x%d: %s\n", n, e)
		}
		recordEndToEnd(rep, append(c.samples, w.samples...), elapsed, d, rep.attempted)
		rep.set("query_p50_ms", percentile(all, 0.5)/1000, "ms")
		rep.set("query_p95_ms", percentile(all, 0.95)/1000, "ms")
		rep.set("txn_p50_us", percentile(w.lat, 0.5), "us")
		rep.set("txn_p99_us", percentile(w.lat, 0.99), "us")
		rep.set("sched_lag_ms", percentile(w.lag, 0.99)/1000, "ms")
		rep.set("gc.cpu_share", d.gcCPUShare(), "ratio")
	}
	// Quiescent: the database must hold exactly the initial data plus the
	// acknowledged writes, and every query must agree with the model
	// updated by them.
	checkFinal(db, ds, h, rep, "live database")
	for _, no := range w.acks {
		ds.applyNewOrder(no)
	}
	checkQueries(db, ds, qs.dom, rep, "final")
	return nil
}

// traceHTAP traces the query client alone and beside the writer,
// alternately, each for half the measured time. engine.contention_us is the difference in
// engine self time per call between the two: lock and mutex wait as seen
// from outside.
func traceHTAP(cfg config, rep *report, db *unidb.Database, qs *querySet, w *openWriter) error {
	quiet := newTracer()
	qc := newTracedQueries(db, qs, quiet, cfg.seed)
	qc.noDigest = true
	tr := newTracer()
	tc := newTracedQueries(db, qs, tr, cfg.seed)
	tc.noDigest = true
	interleave(cfg.measure, qc.runFor, func(s time.Duration) { w.runBeside(func() { tc.runFor(s) }) })

	rep.attempted = qc.n + tc.n + w.ok + w.fail
	rep.failed = qc.fail + tc.fail + w.fail
	layerQueryMetrics(rep, tr, tc)
	rep.set("engine.contention_us", engineSelfPerCall(tr)-engineSelfPerCall(quiet), "us")
	return tr.writeSpans(traceFile(cfg))
}

// engineSelfPerCall is the mean self time of engine get and scan calls.
func engineSelfPerCall(tr *tracer) float64 {
	g, s := tr.agg("engine.get"), tr.agg("engine.scan")
	return durUS(g.self+s.self) / float64(max(g.calls+s.calls, 1))
}
