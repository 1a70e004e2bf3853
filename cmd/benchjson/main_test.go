package main

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestParseRecordsBenchmem(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"cpu: Test CPU @ 2.10GHz",
		"BenchmarkPlain-8          100     12345 ns/op",
		"BenchmarkMem/a-8         2000       812.5 ns/op     1536 B/op      12 allocs/op",
		"BenchmarkZeroAlloc-8  5000000         3.1 ns/op        0 B/op       0 allocs/op",
		"BenchmarkCustom-8          10   9000000 ns/op      42.00 txn/s   4096 B/op   7 allocs/op",
		"PASS",
	}, "\n")
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.CPU != "Test CPU @ 2.10GHz" || len(rep.Benchmarks) != 4 {
		t.Fatalf("report = %+v", rep)
	}
	by := map[string]record{}
	for _, r := range rep.Benchmarks {
		by[r.Name] = r
	}

	if r := by["BenchmarkPlain-8"]; r.NsPerOp != 12345 || r.BytesPerOp != nil || r.AllocsPerOp != nil || r.Metrics != nil {
		t.Errorf("plain line = %+v, want ns/op only", r)
	}
	mem := by["BenchmarkMem/a-8"]
	if mem.NsPerOp != 812.5 || mem.BytesPerOp == nil || *mem.BytesPerOp != 1536 ||
		mem.AllocsPerOp == nil || *mem.AllocsPerOp != 12 || mem.Metrics != nil {
		t.Errorf("benchmem line = %+v, want 1536 B/op and 12 allocs/op as fields", mem)
	}
	zero := by["BenchmarkZeroAlloc-8"]
	if zero.BytesPerOp == nil || *zero.BytesPerOp != 0 || zero.AllocsPerOp == nil || *zero.AllocsPerOp != 0 {
		t.Errorf("zero-alloc line = %+v, want explicit zero figures", zero)
	}
	custom := by["BenchmarkCustom-8"]
	if custom.Metrics["txn/s"] != 42 || len(custom.Metrics) != 1 || *custom.BytesPerOp != 4096 || *custom.AllocsPerOp != 7 {
		t.Errorf("custom-metric line = %+v", custom)
	}

	// The JSON keeps an explicit zero and omits figures that were not measured.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Benchmarks []map[string]any `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, b := range raw.Benchmarks {
		_, hasBytes := b["bytes_per_op"]
		_, hasAllocs := b["allocs_per_op"]
		want := b["name"] != "BenchmarkPlain-8"
		if hasBytes != want || hasAllocs != want {
			t.Errorf("%v: bytes_per_op/allocs_per_op present = %v/%v, want %v", b["name"], hasBytes, hasAllocs, want)
		}
	}
}
