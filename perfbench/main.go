// Command perfbench is unidb's end-to-end benchmark: it loads a seeded
// UniBench dataset through the public unidb API, runs one named workload
// for a fixed time, checks every output against the generator's own model,
// and prints its metrics. With -trace 1 it instead runs the workload's
// single-client traced variant and prints per-layer metrics.
//
// Usage (from the repository root):
//
//	python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// See NOTES.md for why each workload exists and what it exposes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/unidb"
)

// workloadFunc runs one workload and fills rep.
type workloadFunc func(cfg config, rep *report) error

var workloads = map[string]workloadFunc{
	"query":        runQuery,
	"oltp":         func(cfg config, rep *report) error { return runOLTP(cfg, rep, 1) },
	"oltp-sharded": func(cfg config, rep *report) error { return runOLTP(cfg, rep, 4) },
	"htap":         runHTAP,
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	work     string // this run's scratch directory, removed at exit
	traces   string // directory the traced run writes its spans to
}

func main() {
	var cfg config
	var seconds float64
	flag.StringVar(&cfg.workload, "workload", "", "workload: query, oltp, oltp-sharded or htap")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the dataset and the operation mix")
	flag.Float64Var(&seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced single-client variant and prints per-layer metrics")
	flag.StringVar(&cfg.traces, "work", ".bench_build/work", "directory for scratch data and span traces")
	flag.Parse()
	cfg.measure = time.Duration(seconds * float64(time.Second))
	cfg.trace = *trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments; -workload must be one of query, oltp, oltp-sharded, htap")
		os.Exit(2)
	}
	cfg.work = filepath.Join(cfg.traces, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep := newReport()
	err := run(cfg, rep)
	_ = os.RemoveAll(cfg.work) // scratch data only; a leftover is harmless
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.trace {
		fillLayers(rep)
	}
	rep.print(cfg.trace)
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

// report collects one run's metrics, operation counts and check failures.
type report struct {
	attempted, failed int
	problems          []string
	names             []string
	vals              map[string]float64
	units             map[string]string
	kinds             map[string]metricKind
}

// metricKind says where a metric is printed.
type metricKind int

const (
	info     metricKind = iota // on its own line only
	endToEnd                   // also in an untraced run's result object
	perLayer                   // also in a traced run's result object
)

func newReport() *report {
	return &report{vals: map[string]float64{}, units: map[string]string{}, kinds: map[string]metricKind{}}
}

func (r *report) e2e(name string, v float64, unit string)   { r.add(endToEnd, name, v, unit) }
func (r *report) layer(name string, v float64, unit string) { r.add(perLayer, name, v, unit) }
func (r *report) set(name string, v float64, unit string)   { r.add(info, name, v, unit) }

func (r *report) add(k metricKind, name string, v float64, unit string) {
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = v
	r.units[name] = unit
	r.kinds[name] = k
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) print(traced bool) {
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for _, n := range r.names {
		v := r.vals[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("%-40s %16.6g %s\n", n, v, r.units[n])
		if k := r.kinds[n]; traced && k == perLayer || !traced && k == endToEnd {
			out[n] = metric{Value: v, Unit: r.units[n]}
		}
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-40s %16.6g %s (%d of %d operations)\n", "error_rate", errRate, "ratio", r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, max(r.attempted, 1), r.failed, out})
	if err != nil {
		panic(err) // a map of plain floats and strings always marshals
	}
	fmt.Println(string(line))
}

// percentile returns the q-quantile (0..1) of xs by nearest rank; xs is
// sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

func durUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// setUp calls open setupRepeats times, each with a fresh directory under
// work (durable workloads use it), closes and deletes every database but
// the last, and returns the last with its directory and the median set-up
// time in seconds. It then syncs the last directory's files, so that
// writeback of the loaded data does not fall into the measured phase.
func setUp(work string, open func(dir string) (*unidb.Database, error)) (*unidb.Database, string, float64, error) {
	var db *unidb.Database
	var dir string
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, "", 0, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, "", 0, err
			}
		}
		dir = filepath.Join(work, fmt.Sprintf("db-%d", i))
		start := time.Now()
		var err error
		if db, err = open(dir); err != nil {
			return nil, "", 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	if err := syncDir(dir); err != nil {
		return nil, "", 0, err
	}
	return db, dir, median(times), nil
}

// recordEndToEnd records the metrics every workload reports over all of
// its operations: throughput, latency and allocation per operation.
// latency_p50_us weights each operation class's median by the class's share
// of the operations, so that it does not jump between the modes of a mix of
// fast and slow classes; latency_p95_us is taken over all operations.
func recordEndToEnd(rep *report, samples []sample, elapsed time.Duration, d rtDelta, attempted int) {
	all := make([]float64, len(samples))
	for i, s := range samples {
		all[i] = s.us
	}
	ops := float64(max(attempted, 1))
	rep.e2e("throughput_ops_s", float64(len(samples))/elapsed.Seconds(), "1/s")
	rep.e2e("latency_p50_us", classWeighted(samples, 0.5), "us")
	rep.e2e("latency_p95_us", percentile(all, 0.95), "us")
	rep.e2e("alloc_bytes_per_op", d.allocBytes/ops, "B")
	rep.e2e("allocs_per_op", d.allocObjects/ops, "count")
}
