package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/unidb"
)

// Workloads A and C: single-model point reads beside cross-model new-order
// transactions.

const (
	oltpClients   = 2
	oltpReadShare = 0.8
	warmReads     = 2000
)

// oltpOps is one way of issuing the workload's operations: plainOps goes
// through the public API, tracedOps through Core() with every layer timed.
type oltpOps interface {
	cart(c int) (string, bool, error)
	order(key string) (mmvalue.Value, bool, error)
	customer(c int) (mmvalue.Value, bool, error)
	neighbors(c int) ([]string, error)
	// newOrder runs the transaction and returns the credit it wrote.
	newOrder(n newOrder) (int64, error)
}

// version is one committed value of a key: the writer started at begin and
// was acknowledged at ack, both relative to the run's clock.
type version struct {
	val        string
	begin, ack time.Duration
}

// history holds every acknowledged value of the mutable keys (cart entry
// and credit per customer) plus every acknowledged order.
type history struct {
	t0     time.Time
	mu     sync.Mutex
	cart   map[int][]version
	credit map[int][]version
	orders []order
	prices map[int]int64 // acknowledged new-order prices per customer
	newKey []string      // acknowledged new-order keys
}

func newHistory(ds *dataset) *history {
	h := &history{t0: time.Now(), cart: map[int][]version{}, credit: map[int][]version{}, prices: map[int]int64{}}
	for _, c := range ds.Customers {
		h.credit[c.ID] = []version{{val: strconv.FormatInt(c.Credit, 10)}}
		if k, ok := ds.Cart[c.ID]; ok {
			h.cart[c.ID] = []version{{val: k}}
		}
	}
	h.orders = append(h.orders, ds.Orders...)
	return h
}

func (h *history) now() time.Duration { return time.Since(h.t0) }

func (h *history) ack(n newOrder, credit int64, begin time.Duration) {
	end := h.now()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cart[n.Customer] = append(h.cart[n.Customer], version{val: n.Key, begin: begin, ack: end})
	h.credit[n.Customer] = append(h.credit[n.Customer], version{val: strconv.FormatInt(credit, 10), begin: begin, ack: end})
	h.orders = append(h.orders, n.order())
	h.prices[n.Customer] += n.Price
	h.newKey = append(h.newKey, n.Key)
}

func (h *history) pickOrder(r *rand.Rand) order {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.orders[r.Intn(len(h.orders))]
}

// observed is a read of a mutable key, checked once the run has ended and
// every acknowledgement is known.
type observed struct {
	cartRead bool
	cust     int
	val      string
	found    bool
	ts, te   time.Duration
}

// valid reports whether a read returned the last value acknowledged before
// it started or a value whose writer overlapped it.
func (h *history) valid(o observed) bool {
	vs := h.credit[o.cust]
	if o.cartRead {
		vs = h.cart[o.cust]
	}
	latest := ""
	have := false
	for _, v := range vs {
		if v.ack <= o.ts {
			latest, have = v.val, true
		} else if v.begin <= o.te && o.found && v.val == o.val {
			return true
		}
	}
	return have == o.found && (!have || latest == o.val)
}

// oltpClient runs one closed-loop client.
type oltpClient struct {
	id   int
	ops  oltpOps
	h    *history
	ds   *dataset
	r    *rand.Rand
	next int // new-order sequence

	samples         []sample // every completed operation
	readLat, txnLat []float64
	reads, txns     int
	fail            int
	errs            map[string]int
	bad             []string
	obs             []observed
	classes         map[string]int // operations attempted per class
}

func newOLTPClient(id int, ops oltpOps, h *history, ds *dataset, seed int64) *oltpClient {
	return &oltpClient{id: id, ops: ops, h: h, ds: ds, r: rand.New(rand.NewSource(seed*31 + int64(id))),
		errs: map[string]int{}, classes: map[string]int{}}
}

var readClasses = []string{"read.cart", "read.order", "read.customer", "read.neighbors"}

// storeCalls is the store calls each operation class makes through the
// public API; the traced run checks that it makes the same.
var storeCalls = map[string][]string{
	"read.cart":      {"kvstore.get"},
	"read.order":     {"docstore.get"},
	"read.customer":  {"relstore.get"},
	"read.neighbors": {"graphstore.neighbors"},
	"neworder":       {"docstore.insert", "kvstore.set", "relstore.get", "relstore.update", "rdfstore.insert"},
}

// step runs one operation.
func (c *oltpClient) step() {
	n := len(c.ds.Customers)
	cust := c.r.Intn(n)
	if c.r.Float64() >= oltpReadShare {
		c.next++
		no := newOrder{Key: fmt.Sprintf("n%d-%d", c.id, c.next), Customer: cust,
			Product: prodKey(c.r.Intn(len(c.ds.Products))), Price: int64(1 + c.r.Intn(100))}
		begin := c.h.now()
		start := time.Now()
		credit, err := c.ops.newOrder(no)
		lat := durUS(time.Since(start))
		c.classes["neworder"]++
		if err != nil {
			c.failed("neworder", err)
			return
		}
		c.txns++
		c.txnLat = append(c.txnLat, lat)
		c.samples = append(c.samples, sample{lat, "neworder"})
		c.h.ack(no, credit, begin)
		return
	}
	class := readClasses[c.r.Intn(len(readClasses))]
	c.classes[class]++
	var (
		cartVal string
		found   bool
		doc     mmvalue.Value
		ns      []string
		o       order
		err     error
	)
	if class == "read.order" {
		o = c.h.pickOrder(c.r)
	}
	ts := c.h.now()
	start := time.Now()
	switch class {
	case "read.cart":
		cartVal, found, err = c.ops.cart(cust)
	case "read.order":
		doc, found, err = c.ops.order(o.Key)
	case "read.customer":
		doc, found, err = c.ops.customer(cust)
	case "read.neighbors":
		ns, err = c.ops.neighbors(cust)
	}
	lat := durUS(time.Since(start))
	te := c.h.now()
	if err != nil {
		c.failed(class, err)
		return
	}
	c.reads++
	c.readLat = append(c.readLat, lat)
	c.samples = append(c.samples, sample{lat, class})
	switch class {
	case "read.cart":
		c.obs = append(c.obs, observed{cartRead: true, cust: cust, val: cartVal, found: found, ts: ts, te: te})
	case "read.order":
		if !found || doc.GetOr("Order_no").AsString() != o.Key || num(doc.GetOr("customer_id")) != int64(o.Customer) ||
			num(doc.GetOr("total")) != o.Total || doc.GetOr("Orderlines").Len() != len(o.Lines) {
			c.bad = append(c.bad, "order "+o.Key+" read back wrong")
		}
	case "read.customer":
		want := c.ds.Customers[cust]
		if !found || doc.GetOr("name").AsString() != want.Name || doc.GetOr("country").AsString() != want.Country {
			c.bad = append(c.bad, "customer "+custKey(cust)+" read back wrong")
		}
		c.obs = append(c.obs, observed{cust: cust, val: strconv.FormatInt(num(doc.GetOr("credit_limit")), 10), found: found, ts: ts, te: te})
	case "read.neighbors":
		if !sameFriends(ns, c.ds.Friends[cust]) {
			c.bad = append(c.bad, "neighbors of "+custKey(cust)+" differ")
		}
	}
}

func (c *oltpClient) failed(class string, err error) {
	c.fail++
	c.errs[class+": "+err.Error()]++
}

func sameFriends(got []string, friends []int) bool {
	want := make([]string, len(friends))
	for i, f := range friends {
		want[i] = custKey(f)
	}
	got = append([]string(nil), got...)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// runFor runs operations from start until d has passed.
func (c *oltpClient) runFor(start time.Time, d time.Duration) {
	end := start.Add(d)
	for time.Now().Before(end) {
		c.step()
	}
}

// --- Public-API operations ---

type plainOps struct{ db *unidb.Database }

func (p plainOps) cart(c int) (v string, ok bool, err error) {
	err = p.db.View(func(t *unidb.Txn) error {
		val, found, err := t.KVGet("cart", custKey(c))
		v, ok = val.AsString(), found
		return err
	})
	return v, ok, err
}

func (p plainOps) order(key string) (doc mmvalue.Value, ok bool, err error) {
	err = p.db.View(func(t *unidb.Txn) error {
		var err error
		doc, ok, err = t.GetDocument("orders", key)
		return err
	})
	return doc, ok, err
}

func (p plainOps) customer(c int) (row mmvalue.Value, ok bool, err error) {
	err = p.db.View(func(t *unidb.Txn) error {
		var err error
		row, ok, err = t.GetRow("customers", unidb.Int(int64(c)))
		return err
	})
	return row, ok, err
}

func (p plainOps) neighbors(c int) (ns []string, err error) {
	err = p.db.View(func(t *unidb.Txn) error {
		var err error
		ns, err = t.Neighbors("social", custKey(c), unidb.Outbound, "knows")
		return err
	})
	return ns, err
}

// newOrder inserts the order, points the cart at it, decrements the
// customer's credit and records a feedback triple, atomically. unidb.Txn
// cannot update a relational row, so the transaction runs on Core()'s
// engine.Tx; every other call is the one the unidb.Txn method makes.
func (p plainOps) newOrder(n newOrder) (int64, error) {
	db := p.db.Core()
	var credit int64
	err := db.Update(func(tx engine.Tx) error {
		var err error
		credit, err = newOrderBody(tx, db, n, func(_ string, fn func()) { fn() })
		return err
	})
	return credit, err
}

// newOrderBody is the new-order transaction's store calls; around runs
// each call (the traced variant times it).
func newOrderBody(tx engine.Tx, db *core.DB, n newOrder, around func(name string, fn func())) (int64, error) {
	var err error
	around("docstore.insert", func() { _, err = db.Docs.Insert(tx, "orders", orderDoc(n.order())) })
	if err != nil {
		return 0, err
	}
	around("kvstore.set", func() { err = db.KV.Set(tx, "cart", custKey(n.Customer), mmvalue.String(n.Key)) })
	if err != nil {
		return 0, err
	}
	var row mmvalue.Value
	var ok bool
	around("relstore.get", func() { row, ok, err = db.Rels.Get(tx, "customers", mmvalue.Int(int64(n.Customer))) })
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("customer %d missing", n.Customer)
	}
	credit := num(row.GetOr("credit_limit")) - n.Price
	around("relstore.update", func() {
		err = db.Rels.Update(tx, "customers", mmvalue.Object(mmvalue.F("credit_limit", mmvalue.Int(credit))), mmvalue.Int(int64(n.Customer)))
	})
	if err != nil {
		return 0, err
	}
	around("rdfstore.insert", func() { err = db.RDF.Insert(tx, "feedback", feedbackTriple(n.Customer, n.Product)) })
	return credit, err
}

// --- Set-up, checks and recovery ---

func openOLTP(dir string, shards int) (*unidb.Database, error) {
	return unidb.Open(unidb.Options{Dir: dir, Durability: unidb.Buffered, Shards: shards})
}

// setupOLTP opens a fresh data directory, loads ds and warms the read
// paths with read-only operations.
func setupOLTP(dir string, shards int, ds *dataset, seed int64) (*unidb.Database, error) {
	db, err := openOLTP(dir, shards)
	if err != nil {
		return nil, err
	}
	if err := load(db, ds); err != nil {
		db.Close()
		return nil, err
	}
	c := newOLTPClient(-1, plainOps{db}, newHistory(ds), ds, seed)
	for i := 0; i < warmReads; i++ {
		class := readClasses[i%len(readClasses)]
		cust := c.r.Intn(len(ds.Customers))
		switch class {
		case "read.cart":
			_, _, err = c.ops.cart(cust)
		case "read.order":
			_, _, err = c.ops.order(c.h.pickOrder(c.r).Key)
		case "read.customer":
			_, _, err = c.ops.customer(cust)
		default:
			_, err = c.ops.neighbors(cust)
		}
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return db, nil
}

// checkFinal compares every customer's credit and every acknowledged new
// order with the model.
func checkFinal(db *unidb.Database, ds *dataset, h *history, rep *report, what string) {
	badCredit, missing := 0, 0
	err := db.View(func(t *unidb.Txn) error {
		for _, c := range ds.Customers {
			row, ok, err := t.GetRow("customers", unidb.Int(int64(c.ID)))
			if err != nil {
				return err
			}
			if !ok || num(row.GetOr("credit_limit")) != c.Credit-h.prices[c.ID] {
				badCredit++
			}
		}
		for _, k := range h.newKey {
			if _, ok, err := t.GetDocument("orders", k); err != nil {
				return err
			} else if !ok {
				missing++
			}
		}
		return nil
	})
	rep.check(err == nil, "%s: reading back: %v", what, err)
	rep.check(badCredit == 0, "%s: %d customers' credit is not the initial credit minus acknowledged prices", what, badCredit)
	rep.check(missing == 0, "%s: %d of %d acknowledged orders missing", what, missing, len(h.newKey))
}

// recoveryRepeats is how many copies a run recovers; recovery_s is their
// median.
const recoveryRepeats = 3

// recover copies the live data directory (the database stays open, as
// after a crash) and times opening each copy.
func recoverCopies(dir, work string, shards int, ds *dataset, h *history, rep *report) (float64, error) {
	var times []float64
	for i := 0; i < recoveryRepeats; i++ {
		cp := filepath.Join(work, fmt.Sprintf("recovered-%d", i))
		if err := copyDir(dir, cp); err != nil {
			return 0, err
		}
		start := time.Now()
		db, err := openOLTP(cp, shards)
		if err != nil {
			return 0, fmt.Errorf("recovery: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == 0 {
			checkFinal(db, ds, h, rep, "recovered copy")
		}
		if err := db.Close(); err != nil {
			return 0, err
		}
		if err := os.RemoveAll(cp); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// syncDir fsyncs every file under dir; a missing dir (an in-memory
// database) has nothing to sync.
func syncDir(dir string) error {
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return f.Sync()
	})
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// dirBytes sums the sizes of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

func runOLTP(cfg config, rep *report, shards int) error {
	ds := generate(largeData, cfg.seed)
	db, dir, setup, err := setUp(cfg.work, func(dir string) (*unidb.Database, error) {
		return setupOLTP(dir, shards, ds, cfg.seed)
	})
	if err != nil {
		return err
	}
	defer db.Close()
	if cfg.trace {
		return traceOLTP(cfg, rep, db, dir, ds)
	}
	rep.e2e("setup_s", setup, "s")
	rep.e2e("heap_mb", liveHeapMB(), "MB")

	h := newHistory(ds)
	clients := make([]*oltpClient, oltpClients)
	for i := range clients {
		clients[i] = newOLTPClient(i, plainOps{db}, h, ds, cfg.seed)
	}
	rt0 := readRuntime()
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *oltpClient) {
			defer wg.Done()
			c.runFor(start, cfg.measure)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	d := rt0.to(readRuntime())

	var reads, txns []float64
	var samples []sample
	ok, fail := 0, 0
	for _, c := range clients {
		samples = append(samples, c.samples...)
		reads = append(reads, c.readLat...)
		txns = append(txns, c.txnLat...)
		ok += c.reads + c.txns
		fail += c.fail
		for e, n := range c.errs {
			fmt.Printf("oltp error x%d: %s\n", n, e)
		}
		for _, b := range c.bad {
			rep.check(false, "%s", b)
		}
		for _, o := range c.obs {
			rep.check(h.valid(o), "read of %s for %s returned %q, not an acknowledged value", map[bool]string{true: "cart", false: "credit"}[o.cartRead], custKey(o.cust), o.val)
		}
	}
	rep.attempted, rep.failed = ok+fail, fail
	recordEndToEnd(rep, samples, elapsed, d, ok+fail)
	rep.set("read_p50_us", percentile(reads, 0.5), "us")
	rep.set("read_p99_us", percentile(reads, 0.99), "us")
	rep.set("txn_p50_us", percentile(txns, 0.5), "us")
	rep.set("txn_p99_us", percentile(txns, 0.99), "us")
	rep.set("gc.cpu_share", d.gcCPUShare(), "ratio")

	checkFinal(db, ds, h, rep, "live database")
	rec, err := recoverCopies(dir, cfg.work, shards, ds, h, rep)
	if err != nil {
		return err
	}
	rep.set("recovery_s", rec, "s")
	return nil
}
