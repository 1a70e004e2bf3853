package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// The tracer times calls into each layer's public functions from the
// benchmark's side: store calls (docstore, relstore, kvstore, graphstore,
// rdfstore), query calls (Prepare, QueryTx), and, through traceTx, every
// engine.Tx call the layers above make. Spans are kept in memory and
// written out when the run ends. A span's self time is its duration minus
// the engine time its children recorded, so "store self time" is the store
// call minus the engine calls it made.

// span is one timed call. Spans of one operation share op.
type span struct {
	op    uint64
	name  string
	start time.Duration // since the tracer started
	dur   time.Duration
	self  time.Duration
}

// layerAgg sums the spans of one name.
type layerAgg struct {
	calls      int
	self       time.Duration
	rows       int     // engine scans: rows returned
	allocBytes float64 // sampled calls only
	allocCalls int
}

type tracer struct {
	t0     time.Time
	nextOp atomic.Uint64

	mu    sync.Mutex
	spans []span
	aggs  map[string]*layerAgg
}

// maxSpans bounds the spans kept for the trace file; aggregates keep
// counting past it.
const maxSpans = 1 << 18

func newTracer() *tracer { return &tracer{t0: time.Now(), aggs: map[string]*layerAgg{}} }

// op is one traced operation: its spans share an ID, and engineTime sums
// the self time of its engine spans so that enclosing spans can subtract it.
type op struct {
	tr         *tracer
	id         uint64
	engineTime atomic.Int64
}

func (tr *tracer) begin() *op { return &op{tr: tr, id: tr.nextOp.Add(1)} }

func (tr *tracer) record(s span, rows int, alloc float64, sampled bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) < maxSpans {
		tr.spans = append(tr.spans, s)
	}
	a := tr.aggs[s.name]
	if a == nil {
		a = &layerAgg{}
		tr.aggs[s.name] = a
	}
	a.calls++
	a.self += s.self
	a.rows += rows
	if sampled {
		a.allocBytes += alloc
		a.allocCalls++
	}
}

// call runs fn as a span named name whose self time excludes the engine
// spans recorded under o meanwhile.
func (o *op) call(name string, fn func()) time.Duration {
	before := o.engineTime.Load()
	start := time.Now()
	fn()
	dur := time.Since(start)
	self := dur - time.Duration(o.engineTime.Load()-before)
	o.tr.record(span{op: o.id, name: name, start: start.Sub(o.tr.t0), dur: dur, self: self}, 0, 0, false)
	return dur
}

// callAlloc is call that also samples the bytes allocated during fn.
func (o *op) callAlloc(name string, fn func()) {
	before := o.engineTime.Load()
	a0 := allocBytesNow()
	start := time.Now()
	fn()
	dur := time.Since(start)
	alloc := float64(allocBytesNow() - a0)
	self := dur - time.Duration(o.engineTime.Load()-before)
	o.tr.record(span{op: o.id, name: name, start: start.Sub(o.tr.t0), dur: dur, self: self}, 0, alloc, true)
}

// engineSpan records one engine call; inner is time spent in callbacks
// into the caller (scan visitors), which is not engine time.
func (o *op) engineSpan(name string, start time.Time, inner time.Duration, rows int, alloc float64, sampled bool) {
	dur := time.Since(start)
	self := dur - inner
	o.engineTime.Add(int64(self))
	o.tr.record(span{op: o.id, name: name, start: start.Sub(o.tr.t0), dur: dur, self: self}, rows, alloc, sampled)
}

// traceTx wraps an engine.Tx and records a span per call. It forwards the
// snapshot version accessors the CSR cache validates against, so traced
// snapshot traversals take the same path as untraced ones.
type traceTx struct {
	engine.Tx
	o *op
}

// versioned is the snapshot-token surface of engine.Txn and shard.Txn.
type versioned interface {
	SnapshotVersionsFor(keyspaces []string) ([]uint64, bool)
	SnapshotDropEpoch() (uint64, bool)
}

func (o *op) wrap(tx engine.Tx) *traceTx { return &traceTx{Tx: tx, o: o} }

func (t *traceTx) SnapshotVersionsFor(keyspaces []string) ([]uint64, bool) {
	if v, ok := t.Tx.(versioned); ok {
		return v.SnapshotVersionsFor(keyspaces)
	}
	return nil, false
}

func (t *traceTx) SnapshotDropEpoch() (uint64, bool) {
	if v, ok := t.Tx.(versioned); ok {
		return v.SnapshotDropEpoch()
	}
	return 0, false
}

func (t *traceTx) Get(ks string, key []byte) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := t.Tx.Get(ks, key)
	t.o.engineSpan("engine.get", start, 0, 0, 0, false)
	return v, ok, err
}

func (t *traceTx) Put(ks string, key, value []byte) error {
	start := time.Now()
	err := t.Tx.Put(ks, key, value)
	t.o.engineSpan("engine.put", start, 0, 0, 0, false)
	return err
}

func (t *traceTx) Delete(ks string, key []byte) error {
	start := time.Now()
	err := t.Tx.Delete(ks, key)
	t.o.engineSpan("engine.delete", start, 0, 0, 0, false)
	return err
}

func (t *traceTx) Scan(ks string, lo, hi []byte, fn func(key, value []byte) bool) error {
	return t.scan(false, ks, lo, hi, fn)
}

func (t *traceTx) ScanReverse(ks string, lo, hi []byte, fn func(key, value []byte) bool) error {
	return t.scan(true, ks, lo, hi, fn)
}

// scan times an engine range scan. The engine materializes the range
// before its first callback, so the bytes allocated up to the first
// callback (or the return, for an empty range) are the scan's own; time
// inside callbacks belongs to the caller.
func (t *traceTx) scan(reverse bool, ks string, lo, hi []byte, fn func(key, value []byte) bool) error {
	var inner time.Duration
	rows := 0
	a0 := allocBytesNow()
	var alloc uint64
	start := time.Now()
	visit := func(k, v []byte) bool {
		if rows == 0 {
			alloc = allocBytesNow() - a0
		}
		rows++
		cs := time.Now()
		more := fn(k, v)
		inner += time.Since(cs)
		return more
	}
	var err error
	if reverse {
		err = t.Tx.ScanReverse(ks, lo, hi, visit)
	} else {
		err = t.Tx.Scan(ks, lo, hi, visit)
	}
	if rows == 0 {
		alloc = allocBytesNow() - a0
	}
	t.o.engineSpan("engine.scan", start, inner, rows, float64(alloc), true)
	return err
}

func (t *traceTx) Commit() error {
	start := time.Now()
	err := t.Tx.Commit()
	t.o.engineSpan("engine.commit", start, 0, 0, 0, false)
	return err
}

// agg returns the aggregate for a span name (zero if none was recorded).
func (tr *tracer) agg(name string) layerAgg {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if a := tr.aggs[name]; a != nil {
		return *a
	}
	return layerAgg{}
}

// selfPerCallUS is the mean self time of a span name in microseconds.
func (a layerAgg) selfPerCallUS() float64 {
	if a.calls == 0 {
		return 0
	}
	return durUS(a.self) / float64(a.calls)
}

// writeSpans writes every kept span, one per line, sorted by start.
func (tr *tracer) writeSpans(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sort.Slice(tr.spans, func(i, j int) bool { return tr.spans[i].start < tr.spans[j].start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tname\tstart_ns\tdur_ns\tself_ns")
	for _, s := range tr.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.op, s.name, s.start, s.dur, s.self)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
