package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/internal/unibench"
	"repro/unidb"
)

// Workload B: the UniBench cross-model queries Q1–Q5, run as sessions of
// one query each, with parameters drawn from a seeded domain.

var queryNames = []string{"Q1", "Q2", "Q3", "Q4", "Q5"}

// domainSize is the number of distinct Q4 products and Q5 start vertices a
// run draws from; every one is checked against the model at warm-up.
const domainSize = 16

// binding is one parameter choice for one query.
type binding struct {
	label  string
	params map[string]unidb.Value
	ref    func(ds *dataset) any       // the model's answer
	canon  func(res *unidb.Result) any // the database's answer in the same form
}

// queryDomains draws each query's parameter domain from the seed.
func queryDomains(ds *dataset, seed int64) map[string][]binding {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	dom := map[string][]binding{}
	for _, mc := range []int64{5000, 6000, 7000, 8000, 9000} {
		mc := mc
		dom["Q1"] = append(dom["Q1"], binding{
			label:  strconv.FormatInt(mc, 10),
			params: map[string]unidb.Value{"minCredit": unidb.Int(mc), "anchors": unidb.Int(q1Anchors)},
			ref:    func(ds *dataset) any { return ds.refQ1(mc) },
			canon:  canonStrings,
		})
	}
	for _, c := range countries {
		c := c
		dom["Q2"] = append(dom["Q2"], binding{
			label:  c,
			params: map[string]unidb.Value{"country": unidb.Str(c)},
			ref:    func(ds *dataset) any { return ds.refQ2(c) },
			canon:  canonQ2,
		})
	}
	dom["Q3"] = []binding{{label: "-", ref: func(ds *dataset) any { return ds.refQ3() }, canon: canonQ3}}
	for _, i := range r.Perm(len(ds.Products))[:domainSize] {
		p := ds.Products[i].Key
		dom["Q4"] = append(dom["Q4"], binding{
			label:  p,
			params: map[string]unidb.Value{"pattern": unidb.MustParseJSON(`{"Orderlines":[{"Product_no":"` + p + `"}]}`)},
			ref:    func(ds *dataset) any { return ds.refQ4(p) },
			canon:  canonStrings,
		})
	}
	for _, c := range r.Perm(len(ds.Customers))[:domainSize] {
		c := c
		dom["Q5"] = append(dom["Q5"], binding{
			label:  custKey(c),
			params: map[string]unidb.Value{"start": unidb.Str(custKey(c))},
			ref:    func(ds *dataset) any { return ds.refQ5(c) },
			canon:  canonStrings,
		})
	}
	return dom
}

func canonStrings(res *unidb.Result) any {
	out := make([]string, len(res.Values))
	for i, v := range res.Values {
		out[i] = v.AsString()
	}
	sort.Strings(out)
	return out
}

func canonQ2(res *unidb.Result) any {
	out := make([]string, len(res.Values))
	for i, v := range res.Values {
		out[i] = fmt.Sprintf("%d:%d", num(v.GetOr("customer")), num(v.GetOr("spend")))
	}
	return out
}

func canonQ3(res *unidb.Result) any {
	out := make([][2]string, len(res.Values))
	for i, v := range res.Values {
		out[i] = [2]string{v.GetOr("product").AsString(), strconv.FormatInt(num(v.GetOr("revenue")), 10)}
	}
	return out
}

func num(v unidb.Value) int64 {
	if v.Kind() == mmvalue.KindFloat {
		return int64(v.AsFloat())
	}
	return v.AsInt()
}

// matches compares a canonical database answer with the model's.
func matches(q string, got, want any) bool {
	if q == "Q3" {
		return q3Matches(got.([][2]string), want.(map[string]int64))
	}
	g, w := got.([]string), want.([]string)
	if q == "Q2" {
		g = append([]string(nil), g...)
		sort.Strings(g)
		w = append([]string(nil), w...)
		sort.Strings(w)
	}
	if len(g) != len(w) {
		return false
	}
	for i := range g {
		if g[i] != w[i] {
			return false
		}
	}
	return true
}

// q3Matches accepts the ten products with the highest revenue in
// descending order, whatever order ties take.
func q3Matches(got [][2]string, rev map[string]int64) bool {
	all := make([]int64, 0, len(rev))
	for _, r := range rev {
		all = append(all, r)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	if len(got) != min(10, len(all)) {
		return false
	}
	seen := map[string]bool{}
	for i, g := range got {
		r, ok := rev[g[0]]
		if !ok || seen[g[0]] || strconv.FormatInt(r, 10) != g[1] || r != all[i] {
			return false
		}
		seen[g[0]] = true
	}
	return true
}

// digest fingerprints a result in the order the database returned it.
func digest(res *unidb.Result) uint64 {
	h := fnv.New64a()
	for _, v := range res.Values {
		h.Write([]byte(v.String()))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// querySet is the prepared query mix of one database: each binding's
// expected digest, learned at warm-up after the model check.
type querySet struct {
	dom     map[string][]binding
	digests map[string][]uint64
}

// checkQueries runs every binding once, compares each result with the
// model's answer and returns the result digests. At warm-up the digests
// become the expected results of the measured phase.
func checkQueries(db *unidb.Database, ds *dataset, dom map[string][]binding, rep *report, phase string) map[string][]uint64 {
	digests := map[string][]uint64{}
	for _, q := range queryNames {
		for _, b := range dom[q] {
			res, err := db.Query(unibench.QueryB[q], b.params)
			if err != nil {
				rep.check(false, "%s %s(%s): %v", phase, q, b.label, err)
				digests[q] = append(digests[q], 0)
				continue
			}
			rep.check(matches(q, b.canon(res), b.ref(ds)), "%s %s(%s): result differs from the model", phase, q, b.label)
			digests[q] = append(digests[q], digest(res))
		}
	}
	return digests
}

// queryClient runs closed-loop Q1–Q5 sessions.
type queryClient struct {
	db    *unidb.Database
	qs    *querySet
	r     *rand.Rand
	check bool // compare digests; off once the data may change

	samples  []sample             // every completed query
	lat      map[string][]float64 // per query, microseconds
	all      []float64
	ok, fail int
	errs     map[string]int
	bad      int               // digest mismatches
	stats    map[string]string // query|binding -> Result.Stats fingerprint
}

func newQueryClient(db *unidb.Database, qs *querySet, seed int64, check bool) *queryClient {
	return &queryClient{db: db, qs: qs, r: rand.New(rand.NewSource(seed)), check: check,
		lat: map[string][]float64{}, errs: map[string]int{}, stats: map[string]string{}}
}

// session runs Q1..Q5 once each with drawn parameters.
func (c *queryClient) session() {
	for _, q := range queryNames {
		i := c.r.Intn(len(c.qs.dom[q]))
		b := c.qs.dom[q][i]
		start := time.Now()
		res, err := c.db.Query(unibench.QueryB[q], b.params)
		us := durUS(time.Since(start))
		if err != nil {
			c.fail++
			c.errs[q+": "+err.Error()]++
			continue
		}
		c.ok++
		c.lat[q] = append(c.lat[q], us)
		c.all = append(c.all, us)
		c.samples = append(c.samples, sample{us, q})
		if c.check && digest(res) != c.qs.digests[q][i] {
			c.bad++
		}
		c.stats[q+"|"+b.label] = fmt.Sprintf("%+v", res.Stats)
	}
}

// runFor runs sessions from start until d has passed.
func (c *queryClient) runFor(start time.Time, d time.Duration) {
	end := start.Add(d)
	for time.Now().Before(end) {
		c.session()
	}
}

// reportQueries prints the query latency metrics of a set of clients.
func reportQueries(rep *report, cs ...*queryClient) (all []float64) {
	per := map[string][]float64{}
	for _, c := range cs {
		all = append(all, c.all...)
		for q, l := range c.lat {
			per[q] = append(per[q], l...)
		}
		for e, n := range c.errs {
			fmt.Printf("query error x%d: %s\n", n, e)
		}
		rep.check(c.bad == 0, "%d query results differ from the warm-up digest", c.bad)
	}
	for _, q := range queryNames {
		rep.set("query_p50_ms."+q, percentile(per[q], 0.5)/1000, "ms")
	}
	return all
}

func runQuery(cfg config, rep *report) error {
	ds := generate(smallData, cfg.seed)
	qs := &querySet{dom: queryDomains(ds, cfg.seed)}
	db, _, setup, err := setUp(cfg.work, func(string) (*unidb.Database, error) {
		db, err := unidb.Open(unidb.Options{})
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
	if cfg.trace {
		return traceQuery(cfg, rep, db, qs)
	}
	rep.e2e("setup_s", setup, "s")
	rep.e2e("heap_mb", liveHeapMB(), "MB")

	c := newQueryClient(db, qs, cfg.seed, true)
	rt0 := readRuntime()
	start := time.Now()
	c.runFor(start, cfg.measure)
	elapsed := time.Since(start)
	d := rt0.to(readRuntime())

	rep.attempted, rep.failed = c.ok+c.fail, c.fail
	all := reportQueries(rep, c)
	recordEndToEnd(rep, c.samples, elapsed, d, c.ok+c.fail)
	rep.set("query_p50_ms", percentile(all, 0.5)/1000, "ms")
	rep.set("query_p95_ms", percentile(all, 0.95)/1000, "ms")
	rep.set("gc.cpu_share", d.gcCPUShare(), "ratio")
	return nil
}

// traceQuery runs the single-client traced variant: the same session
// stream untraced and traced, alternately, each for half the measured time.
// Runtime counters come from the untraced half.
func traceQuery(cfg config, rep *report, db *unidb.Database, qs *querySet) error {
	plain := newQueryClient(db, qs, cfg.seed, true)
	tr := newTracer()
	tc := newTracedQueries(db, qs, tr, cfg.seed)
	csr0 := db.CSRStats()
	var d rtDelta
	interleave(cfg.measure, func(s time.Duration) {
		measured(&d, func() { plain.runFor(time.Now(), s) })
	}, tc.runFor)
	csr1 := db.CSRStats()
	rep.attempted, rep.failed = plain.ok+plain.fail+tc.n, plain.fail+tc.fail
	rep.check(tc.bad == 0, "%d traced query results differ from the warm-up digest", tc.bad)
	for k, s := range tc.stats {
		if ps, ok := plain.stats[k]; ok {
			rep.check(ps == s, "traced %s took another path: Result.Stats %s, untraced %s", k, s, ps)
		}
	}
	layerQueryMetrics(rep, tr, tc)
	rep.layer("csr.builds", float64(csr1.Builds-csr0.Builds), "count")
	rep.layer("csr.reuses", float64(csr1.Reuses-csr0.Reuses), "count")
	plainOps := float64(max(plain.ok, 1))
	rep.layer("gc.cpu_share", d.gcCPUShare(), "ratio")
	rep.layer("gc.cycles_per_kop", d.gcCycles/plainOps*1000, "count")
	// The traced half runs each query twice; the overhead is its QueryTx
	// run against the untraced Database.Query, query by query.
	var traced, untraced float64
	for _, q := range queryNames {
		traced += median(tc.txDur[q])
		untraced += median(plain.lat[q])
	}
	rep.layer("trace.overhead_share", traced/untraced-1, "ratio")
	return tr.writeSpans(traceFile(cfg))
}

// traceFile is where a traced run writes its spans.
func traceFile(cfg config) string {
	return filepath.Join(cfg.traces, fmt.Sprintf("trace-%s-%d.tsv", cfg.workload, cfg.seed))
}

// tracedQueries runs the same sessions as queryClient with every layer
// boundary timed: Prepare, Statement.Exec, and the same query again
// through Core().View and QueryTx over a tracing engine.Tx. Exec makes its
// own transaction, out of the wrapper's reach, so the query layer's self
// time is the QueryTx run's duration minus its engine spans.
type tracedQueries struct {
	db    *unidb.Database
	qs    *querySet
	tr    *tracer
	r     *rand.Rand
	stats map[string]string
	pc0   unidb.PlanCacheStats
	// noDigest skips the digest checks while writers change the data.
	noDigest bool

	n, fail, bad int
	execSelf     map[string][]float64 // ms
	txDur        map[string][]float64 // traced QueryTx duration, us
	rowsRead     map[string][]float64
	counters     map[string]float64
}

func newTracedQueries(db *unidb.Database, qs *querySet, tr *tracer, seed int64) *tracedQueries {
	return &tracedQueries{db: db, qs: qs, tr: tr, r: rand.New(rand.NewSource(seed)), stats: map[string]string{},
		pc0: db.PlanCacheStats(), execSelf: map[string][]float64{}, txDur: map[string][]float64{},
		rowsRead: map[string][]float64{}, counters: map[string]float64{}}
}

// runFor runs sessions until d has passed.
func (t *tracedQueries) runFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		t.session()
	}
}

func (t *tracedQueries) session() {
	core := t.db.Core()
	for _, q := range queryNames {
		i := t.r.Intn(len(t.qs.dom[q]))
		b := t.qs.dom[q][i]
		text := unibench.QueryB[q]
		o := t.tr.begin()
		t.n++
		var st *unidb.Statement
		var err error
		o.call("core.prepare", func() { st, err = t.db.Prepare(text) })
		if err != nil {
			t.fail++
			continue
		}
		var res *unidb.Result
		o.call("query.exec."+lower(q), func() { res, err = st.Exec(b.params) })
		if err != nil {
			t.fail++
			continue
		}
		if !t.noDigest && digest(res) != t.qs.digests[q][i] {
			t.bad++
		}
		t.stats[q+"|"+b.label] = fmt.Sprintf("%+v", res.Stats)
		e0 := o.engineTime.Load()
		var res2 *unidb.Result
		txDur := o.call("query.querytx."+lower(q), func() {
			err = core.View(func(tx engine.Tx) error {
				var qerr error
				res2, qerr = core.QueryTx(o.wrap(tx), text, b.params)
				return qerr
			})
		})
		if err != nil {
			t.fail++
			continue
		}
		if !t.noDigest && digest(res2) != t.qs.digests[q][i] {
			t.bad++
		}
		t.txDur[q] = append(t.txDur[q], durUS(txDur))
		eng := float64(o.engineTime.Load() - e0)
		t.execSelf[q] = append(t.execSelf[q], (float64(txDur)-eng)/1e6)
		s := res.Stats
		if len(res.Values) > 0 {
			t.rowsRead[q] = append(t.rowsRead[q], float64(s.RowsRead)/float64(len(res.Values)))
		}
		t.counters["index_scans"] += float64(s.IndexScans)
		t.counters["full_scans"] += float64(s.FullScans)
		t.counters["snapshot_reads"] += float64(s.SnapshotReads)
		t.counters["csr_traversals"] += float64(s.CSRTraversals)
		t.counters["vectorized_batches"] += float64(s.VectorizedBatches)
		t.counters["parallel_scans"] += float64(s.ParallelScans)
	}
}

// layerQueryMetrics prints the query-layer and engine-layer metrics of a
// traced query phase.
func layerQueryMetrics(rep *report, tr *tracer, tc *tracedQueries) {
	prep := tr.agg("core.prepare")
	rep.layer("core.prepare_us", prep.selfPerCallUS(), "us")
	pc := tc.db.PlanCacheStats()
	hits, misses := float64(pc.Hits-tc.pc0.Hits), float64(pc.Misses-tc.pc0.Misses)
	rep.layer("core.plancache.hit_rate", hits/max(hits+misses, 1), "ratio")
	for _, q := range queryNames {
		rep.layer("query.exec_ms."+lower(q), median(tc.execSelf[q]), "ms")
		rep.layer("query.rows_read_per_result."+lower(q), median(tc.rowsRead[q]), "count")
	}
	n := float64(max(tc.n, 1))
	for _, k := range []string{"index_scans", "full_scans", "snapshot_reads", "csr_traversals", "vectorized_batches", "parallel_scans"} {
		rep.layer("query."+k, tc.counters[k]/n, "count")
	}
	engineMetrics(rep, tr, n)
}

// engineMetrics prints engine call counts per operation and self time per
// call.
func engineMetrics(rep *report, tr *tracer, ops float64) {
	get, scan, put, commit := tr.agg("engine.get"), tr.agg("engine.scan"), tr.agg("engine.put"), tr.agg("engine.commit")
	rep.layer("engine.get.calls", float64(get.calls)/ops, "count")
	rep.layer("engine.get_us", get.selfPerCallUS(), "us")
	rep.layer("engine.scan.calls", float64(scan.calls)/ops, "count")
	rep.layer("engine.scan.rows_per_call", float64(scan.rows)/float64(max(scan.calls, 1)), "count")
	rep.layer("engine.scan.alloc_bytes_per_row", scan.allocBytes/float64(max(scan.rows, 1)), "B")
	rep.layer("engine.scan_us", scan.selfPerCallUS(), "us")
	rep.layer("engine.put.calls", float64(put.calls)/ops, "count")
	rep.layer("engine.commit_us", commit.selfPerCallUS(), "us")
}

func lower(q string) string { return "q" + q[1:] }
