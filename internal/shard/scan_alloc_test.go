package shard

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/engine"
)

// allocBytesPerCall returns the heap bytes allocated per call of fn,
// averaged over n calls (TotalAlloc delta; one warm-up call first).
func allocBytesPerCall(n int, fn func()) float64 {
	fn()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

func scanKey(i int) []byte { return []byte(fmt.Sprintf("k%06d", i)) }

// TestFanOutScanAllocatesForTheRange pins that a 4-shard scatter-gather of
// a short bounded range pays for the rows it returns, not for the keyspace:
// each shard hands over its own range-sized run, with no keyspace-sized
// presize and no second copy, so a 4-key scan over 64k keys allocates about
// what it does over 1k keys — locked and on a consistent cut.
func TestFanOutScanAllocatesForTheRange(t *testing.T) {
	const scans = 300
	lo, hi := scanKey(500), scanKey(504)
	for _, mode := range []string{"locked", "snapshot"} {
		t.Run(mode, func(t *testing.T) {
			var perScan [2]float64
			for i, n := range []int{1 << 10, 1 << 16} {
				r := openEphemeral(t, 4)
				const batch = 8192
				for start := 0; start < n; start += batch {
					err := r.Update(func(tx engine.Tx) error {
						for k := start; k < min(start+batch, n); k++ {
							if err := tx.Put("ks", scanKey(k), []byte("v")); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				var tx *Txn
				var err error
				if mode == "snapshot" {
					tx, err = r.beginSnapshotAt(r.Cut())
				} else {
					tx, err = r.Begin()
				}
				if err != nil {
					t.Fatal(err)
				}
				rows := 0
				perScan[i] = allocBytesPerCall(scans, func() {
					rows = 0
					if err := tx.Scan("ks", lo, hi, func(k, v []byte) bool {
						rows++
						return true
					}); err != nil {
						t.Fatal(err)
					}
				})
				tx.Abort()
				if rows != 4 {
					t.Fatalf("%d keys: scan returned %d rows, want 4", n, rows)
				}
			}
			t.Logf("bytes per 4-row fan-out scan: 1k keys %.0f, 64k keys %.0f", perScan[0], perScan[1])
			if perScan[1] > 2*perScan[0] || perScan[1] >= 4096 {
				t.Fatalf("4-row fan-out scan over 64k keys allocates %.0f B (1k keys: %.0f B); want <= 2x and < 4 KB",
					perScan[1], perScan[0])
			}
		})
	}
}
