// benchjson converts `go test -bench` text output into machine-readable
// JSON so benchmark runs (E1–E18) can be diffed across commits.
//
// Usage:
//
//	go test -run '^$' -bench . . | go run ./cmd/benchjson -o BENCH_1.json
//
// Each benchmark line becomes one record carrying its iteration count,
// ns/op, the -benchmem figures (B/op, allocs/op) when the sweep ran with
// -benchmem, and any extra ReportMetric values (txn/s, index-items, ...).
// Context lines (goos/goarch/pkg/cpu) are captured into the header.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

type record struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// -benchmem figures; nil when the line has none, so a real zero
	// (an allocation-free bench) stays distinguishable from "not measured".
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []record `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkE1RecommendationQuery/MMQL-8   12345   98765 ns/op   42 txn/s
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// metricPair matches one "value unit" pair within the tail of a bench line.
var metricPair = regexp.MustCompile(`([0-9.eE+-]+)\s+([^\s]+)`)

func parse(lines *bufio.Scanner) (report, error) {
	var rep report
	for lines.Scan() {
		line := strings.TrimRight(lines.Text(), " \t")
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return rep, fmt.Errorf("bad iteration count in %q: %v", line, err)
		}
		rec := record{Name: m[1], Iterations: iters}
		for _, pair := range metricPair.FindAllStringSubmatch(m[3], -1) {
			val, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue
			}
			switch pair[2] {
			case "ns/op":
				rec.NsPerOp = val
				continue
			case "B/op":
				rec.BytesPerOp = &val
				continue
			case "allocs/op":
				rec.AllocsPerOp = &val
				continue
			}
			if rec.Metrics == nil {
				rec.Metrics = map[string]float64{}
			}
			rec.Metrics[pair[2]] = val
		}
		rep.Benchmarks = append(rep.Benchmarks, rec)
	}
	return rep, lines.Err()
}

func main() {
	out := flag.String("o", "BENCH_1.json", "output file (- for stdout)")
	flag.Parse()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	rep, err := parse(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}
