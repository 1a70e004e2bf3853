// benchdiff compares two benchjson reports (see cmd/benchjson) and flags
// per-benchmark ns/op regressions beyond a threshold — and B/op and
// allocs/op regressions for benchmarks whose baseline recorded -benchmem
// figures. A baseline without those figures only has its ns/op gated, so
// an older baseline never turns the diff red just for lacking them.
//
// Usage:
//
//	go run ./cmd/benchdiff [-threshold 10] [-per-bench 'rx=pct,...'] [-fail] BASELINE.json FRESH.json
//
// Benchmarks are matched by name after stripping the trailing -GOMAXPROCS
// suffix, so reports taken on machines with different core counts still
// line up. Benchmarks present on only one side are listed but are not
// regressions. With -fail, any regression makes the exit status 1 —
// off by default because one-shot sweeps (-benchtime 1x) are noisy and a
// hard gate would flake; CI runs it in report-only mode.
//
// -per-bench widens (or tightens) the gate for benchmarks whose timer is
// dominated by something noisier than the code under test. The WAL fsync
// benches (E7 durability, E20 group commit) time the disk's sync latency,
// which swings far more run-to-run than compute-bound benches do, so the
// committed gate gives them a wider band instead of loosening the global
// threshold for everyone. Rules are comma-separated `regex=pct` pairs
// matched against the normalized name; the first match wins.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type record struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []record `json:"benchmarks"`
}

// diff is one matched benchmark pair.
type diff struct {
	Name      string
	Base, New float64 // ns/op
	DeltaPct  float64 // (new-base)/base * 100
	Threshold float64 // gate applied to this benchmark, to every figure
	// Bytes and Allocs compare B/op and allocs/op; nil unless both reports
	// carry the figure for this benchmark.
	Bytes, Allocs *memDelta
	Regression    bool // any compared figure beyond the gate
}

// memDelta is one -benchmem figure of a matched pair.
type memDelta struct {
	Base, New  float64
	DeltaPct   float64
	Regression bool
}

// compareMem compares one -benchmem figure; nil when either side lacks it.
// A zero baseline is never a regression (no meaningful percentage).
func compareMem(base, fresh *float64, thresholdPct float64) *memDelta {
	if base == nil || fresh == nil {
		return nil
	}
	m := &memDelta{Base: *base, New: *fresh}
	if m.Base > 0 {
		m.DeltaPct = (m.New - m.Base) / m.Base * 100
		m.Regression = m.DeltaPct > thresholdPct
	}
	return m
}

// benchThreshold is one per-benchmark gate override.
type benchThreshold struct {
	rx  *regexp.Regexp
	pct float64
}

// parsePerBench parses comma-separated `regex=pct` pairs.
func parsePerBench(spec string) ([]benchThreshold, error) {
	if spec == "" {
		return nil, nil
	}
	var rules []benchThreshold
	for _, pair := range strings.Split(spec, ",") {
		eq := strings.LastIndex(pair, "=")
		if eq < 0 {
			return nil, fmt.Errorf("per-bench rule %q: want regex=pct", pair)
		}
		rx, err := regexp.Compile(pair[:eq])
		if err != nil {
			return nil, fmt.Errorf("per-bench rule %q: %w", pair, err)
		}
		pct, err := strconv.ParseFloat(pair[eq+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("per-bench rule %q: %w", pair, err)
		}
		rules = append(rules, benchThreshold{rx: rx, pct: pct})
	}
	return rules, nil
}

// thresholdFor picks the gate for one normalized benchmark name: the first
// matching override, else the global default.
func thresholdFor(name string, defaultPct float64, overrides []benchThreshold) float64 {
	for _, o := range overrides {
		if o.rx.MatchString(name) {
			return o.pct
		}
	}
	return defaultPct
}

// result is the full comparison outcome.
type result struct {
	Diffs       []diff
	OnlyInBase  []string
	OnlyInFresh []string
}

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func normalize(name string) string {
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

// compare matches benchmarks by normalized name and computes ns/op (and,
// where both sides have them, B/op and allocs/op) deltas; a regression is
// any figure rising by more than the benchmark's gate — the first matching
// per-bench override, or thresholdPct when none matches.
func compare(base, fresh report, thresholdPct float64, overrides ...benchThreshold) result {
	baseBy := map[string]record{}
	for _, b := range base.Benchmarks {
		baseBy[normalize(b.Name)] = b
	}
	var res result
	seen := map[string]bool{}
	for _, f := range fresh.Benchmarks {
		name := normalize(f.Name)
		seen[name] = true
		b, ok := baseBy[name]
		if !ok {
			res.OnlyInFresh = append(res.OnlyInFresh, name)
			continue
		}
		d := diff{Name: name, Base: b.NsPerOp, New: f.NsPerOp}
		d.Threshold = thresholdFor(name, thresholdPct, overrides)
		if b.NsPerOp > 0 {
			d.DeltaPct = (f.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
			d.Regression = d.DeltaPct > d.Threshold
		}
		d.Bytes = compareMem(b.BytesPerOp, f.BytesPerOp, d.Threshold)
		d.Allocs = compareMem(b.AllocsPerOp, f.AllocsPerOp, d.Threshold)
		for _, m := range []*memDelta{d.Bytes, d.Allocs} {
			if m != nil && m.Regression {
				d.Regression = true
			}
		}
		res.Diffs = append(res.Diffs, d)
	}
	for name := range baseBy {
		if !seen[name] {
			res.OnlyInBase = append(res.OnlyInBase, name)
		}
	}
	sort.Slice(res.Diffs, func(i, j int) bool { return res.Diffs[i].DeltaPct > res.Diffs[j].DeltaPct })
	sort.Strings(res.OnlyInBase)
	sort.Strings(res.OnlyInFresh)
	return res
}

func load(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func main() {
	threshold := flag.Float64("threshold", 10, "regression threshold in percent")
	perBench := flag.String("per-bench", "", "per-benchmark threshold overrides: comma-separated regex=pct, first match wins")
	failOnRegression := flag.Bool("fail", false, "exit 1 if any regression exceeds the threshold")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 10] [-per-bench 'rx=pct,...'] [-fail] BASELINE.json FRESH.json")
		os.Exit(2)
	}
	overrides, err := parsePerBench(*perBench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fresh, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	res := compare(base, fresh, *threshold, overrides...)

	regressions := 0
	for _, d := range res.Diffs {
		marker := "  "
		if d.Regression {
			marker = "!!"
			regressions++
		} else if d.DeltaPct < -d.Threshold {
			marker = "++"
		}
		gate := ""
		if d.Threshold != *threshold {
			gate = fmt.Sprintf("  (gate %.0f%%)", d.Threshold)
		}
		mem := ""
		if d.Bytes != nil {
			mem += fmt.Sprintf("  B/op %+.1f%%", d.Bytes.DeltaPct)
		}
		if d.Allocs != nil {
			mem += fmt.Sprintf("  allocs/op %+.1f%%", d.Allocs.DeltaPct)
		}
		fmt.Printf("%s %-60s %14.0f -> %14.0f ns/op  %+7.1f%%%s%s\n",
			marker, d.Name, d.Base, d.New, d.DeltaPct, mem, gate)
	}
	for _, name := range res.OnlyInBase {
		fmt.Printf("-- %-60s (removed: in baseline only)\n", name)
	}
	for _, name := range res.OnlyInFresh {
		fmt.Printf("** %-60s (new: no baseline)\n", name)
	}
	fmt.Printf("\nbenchdiff: %d compared, %d regression(s) beyond %+.0f%%, %d new, %d removed\n",
		len(res.Diffs), regressions, *threshold, len(res.OnlyInFresh), len(res.OnlyInBase))
	if regressions > 0 && *failOnRegression {
		os.Exit(1)
	}
}
