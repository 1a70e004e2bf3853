package main

import (
	"encoding/json"
	"testing"
)

func rec(name string, ns float64) record { return record{Name: name, NsPerOp: ns} }

func TestCompareFlagsRegressionsBeyondThreshold(t *testing.T) {
	base := report{Benchmarks: []record{
		rec("BenchmarkA-8", 100),
		rec("BenchmarkB-8", 100),
		rec("BenchmarkC-8", 100),
		rec("BenchmarkGone-8", 50),
	}}
	fresh := report{Benchmarks: []record{
		rec("BenchmarkA-16", 125), // +25% -> regression
		rec("BenchmarkB-16", 109), // +9%  -> within threshold
		rec("BenchmarkC-16", 70),  // -30% -> improvement
		rec("BenchmarkNew-16", 10),
	}}
	res := compare(base, fresh, 10)

	byName := map[string]diff{}
	for _, d := range res.Diffs {
		byName[d.Name] = d
	}
	if len(byName) != 3 {
		t.Fatalf("compared %d benchmarks, want 3", len(byName))
	}
	if d := byName["BenchmarkA"]; !d.Regression || d.DeltaPct != 25 {
		t.Errorf("A = %+v, want regression at +25%%", d)
	}
	if d := byName["BenchmarkB"]; d.Regression {
		t.Errorf("B flagged as regression at %+.1f%%", d.DeltaPct)
	}
	if d := byName["BenchmarkC"]; d.Regression || d.DeltaPct != -30 {
		t.Errorf("C = %+v, want -30%% improvement", d)
	}
	if len(res.OnlyInBase) != 1 || res.OnlyInBase[0] != "BenchmarkGone" {
		t.Errorf("OnlyInBase = %v", res.OnlyInBase)
	}
	if len(res.OnlyInFresh) != 1 || res.OnlyInFresh[0] != "BenchmarkNew" {
		t.Errorf("OnlyInFresh = %v", res.OnlyInFresh)
	}
	// Sorted worst-first: A (+25) before B (+9) before C (-30).
	if res.Diffs[0].Name != "BenchmarkA" || res.Diffs[2].Name != "BenchmarkC" {
		t.Errorf("diff order = %v, %v, %v", res.Diffs[0].Name, res.Diffs[1].Name, res.Diffs[2].Name)
	}
}

// TestComparePerBenchOverrides pins the widened gate for fsync-dominated
// benchmarks: a +25% swing on an E7/E20-style bench stays green under its
// 40% override while the same swing on a compute bench is flagged, and an
// improvement beyond the wide gate still reads as improvement.
func TestComparePerBenchOverrides(t *testing.T) {
	base := report{Benchmarks: []record{
		rec("BenchmarkE7WALDurability/SyncedWAL-8", 100000),
		rec("BenchmarkE20GroupCommit/writers=16-8", 100000),
		rec("BenchmarkCompute-8", 100),
	}}
	fresh := report{Benchmarks: []record{
		rec("BenchmarkE7WALDurability/SyncedWAL-8", 125000), // +25%, inside 40% gate
		rec("BenchmarkE20GroupCommit/writers=16-8", 145000), // +45%, beyond even the wide gate
		rec("BenchmarkCompute-8", 125),                      // +25%, beyond the 10% default
	}}
	overrides, err := parsePerBench(`E7WALDurability=40,E20GroupCommit=40`)
	if err != nil {
		t.Fatal(err)
	}
	res := compare(base, fresh, 10, overrides...)
	byName := map[string]diff{}
	for _, d := range res.Diffs {
		byName[d.Name] = d
	}
	if d := byName["BenchmarkE7WALDurability/SyncedWAL"]; d.Regression || d.Threshold != 40 {
		t.Errorf("E7 = %+v, want +25%% inside a 40%% gate", d)
	}
	if d := byName["BenchmarkE20GroupCommit/writers=16"]; !d.Regression || d.Threshold != 40 {
		t.Errorf("E20 = %+v, want +45%% flagged even by the 40%% gate", d)
	}
	if d := byName["BenchmarkCompute"]; !d.Regression || d.Threshold != 10 {
		t.Errorf("Compute = %+v, want +25%% flagged by the 10%% default", d)
	}
}

func TestParsePerBenchRejectsMalformedRules(t *testing.T) {
	for _, bad := range []string{"noequals", "rx=notanumber", "(unclosed=10"} {
		if _, err := parsePerBench(bad); err == nil {
			t.Errorf("parsePerBench(%q) accepted a malformed rule", bad)
		}
	}
	rules, err := parsePerBench("")
	if err != nil || rules != nil {
		t.Errorf("empty spec = %v, %v; want no rules, no error", rules, err)
	}
}

func TestCompareZeroBaselineIsNotRegression(t *testing.T) {
	base := report{Benchmarks: []record{rec("BenchmarkZ", 0)}}
	fresh := report{Benchmarks: []record{rec("BenchmarkZ", 100)}}
	res := compare(base, fresh, 10)
	if len(res.Diffs) != 1 || res.Diffs[0].Regression {
		t.Fatalf("zero-baseline diff = %+v; must not divide by zero or flag", res.Diffs)
	}
}

func TestNormalizeStripsOnlyGomaxprocsSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkE4PointLookup/btree-8": "BenchmarkE4PointLookup/btree",
		"BenchmarkE3GIN/NoIndex":         "BenchmarkE3GIN/NoIndex",
		"BenchmarkX/n=10-16":             "BenchmarkX/n=10",
	} {
		if got := normalize(in); got != want {
			t.Errorf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func memRec(name string, ns, bytes, allocs float64) record {
	return record{Name: name, NsPerOp: ns, BytesPerOp: &bytes, AllocsPerOp: &allocs}
}

// TestCompareGatesBenchmemOnlyWhereBaselineHasIt pins the -benchmem gate:
// B/op and allocs/op regressions are flagged for benchmarks whose baseline
// recorded them, and a baseline that predates -benchmem never goes red just
// because the fresh sweep now carries the figures.
func TestCompareGatesBenchmemOnlyWhereBaselineHasIt(t *testing.T) {
	var base, fresh report
	if err := json.Unmarshal([]byte(`{"benchmarks": [
		{"name": "BenchmarkBytes-8", "ns_per_op": 100, "bytes_per_op": 1000, "allocs_per_op": 10},
		{"name": "BenchmarkAllocs-8", "ns_per_op": 100, "bytes_per_op": 1000, "allocs_per_op": 10},
		{"name": "BenchmarkSteady-8", "ns_per_op": 100, "bytes_per_op": 1000, "allocs_per_op": 10},
		{"name": "BenchmarkZeroAlloc-8", "ns_per_op": 100, "bytes_per_op": 0, "allocs_per_op": 0},
		{"name": "BenchmarkOldBaseline-8", "ns_per_op": 100}
	]}`), &base); err != nil {
		t.Fatal(err)
	}
	fresh.Benchmarks = []record{
		memRec("BenchmarkBytes-8", 100, 1500, 10),       // B/op +50%
		memRec("BenchmarkAllocs-8", 100, 1000, 20),      // allocs/op +100%
		memRec("BenchmarkSteady-8", 100, 1050, 9),       // within the gate
		memRec("BenchmarkZeroAlloc-8", 100, 64, 1),      // zero baseline: no percentage
		memRec("BenchmarkOldBaseline-8", 100, 9999, 99), // baseline lacks the figures
	}
	res := compare(base, fresh, 10)
	by := map[string]diff{}
	for _, d := range res.Diffs {
		by[d.Name] = d
	}
	if d := by["BenchmarkBytes"]; !d.Regression || d.Bytes == nil || !d.Bytes.Regression || d.Bytes.DeltaPct != 50 || d.Allocs.Regression {
		t.Errorf("Bytes = %+v, want a B/op regression at +50%%", d)
	}
	if d := by["BenchmarkAllocs"]; !d.Regression || d.Allocs == nil || !d.Allocs.Regression || d.Allocs.DeltaPct != 100 {
		t.Errorf("Allocs = %+v, want an allocs/op regression at +100%%", d)
	}
	if d := by["BenchmarkSteady"]; d.Regression || d.Bytes == nil || d.Bytes.DeltaPct != 5 || d.Allocs.DeltaPct != -10 {
		t.Errorf("Steady = %+v, want +5%% B/op and -10%% allocs/op, no regression", d)
	}
	if d := by["BenchmarkZeroAlloc"]; d.Regression || d.Bytes == nil || d.Allocs == nil {
		t.Errorf("ZeroAlloc = %+v, want compared figures but no regression", d)
	}
	if d := by["BenchmarkOldBaseline"]; d.Regression || d.Bytes != nil || d.Allocs != nil {
		t.Errorf("OldBaseline = %+v, want ns/op only and no regression", d)
	}
}
