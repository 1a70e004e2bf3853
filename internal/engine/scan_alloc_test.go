package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
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

// openLoaded returns an ephemeral engine whose keyspace "ks" holds n keys.
func openLoaded(t *testing.T, n int) *Engine {
	t.Helper()
	e, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	const batch = 8192
	for start := 0; start < n; start += batch {
		err := e.Update(func(tx *Txn) error {
			for i := start; i < min(start+batch, n); i++ {
				if err := tx.Put("ks", scanKey(i), []byte("v")); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestBoundedScanAllocatesForTheRange pins that a short bounded scan pays
// for the rows it returns, not for the keyspace it runs over: a 4-key scan
// over 64k keys allocates about what the same scan over 1k keys does, on
// both the locked and the snapshot path.
func TestBoundedScanAllocatesForTheRange(t *testing.T) {
	const scans = 500
	lo, hi := scanKey(500), scanKey(504)
	for _, mode := range []string{"locked", "snapshot"} {
		t.Run(mode, func(t *testing.T) {
			var perScan [2]float64
			for i, n := range []int{1 << 10, 1 << 16} {
				e := openLoaded(t, n)
				var tx *Txn
				var err error
				if mode == "snapshot" {
					tx, err = e.BeginSnapshot()
				} else {
					tx, err = e.Begin()
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
			t.Logf("bytes per 4-row scan: 1k keys %.0f, 64k keys %.0f", perScan[0], perScan[1])
			if perScan[1] > 2*perScan[0] || perScan[1] >= 4096 {
				t.Fatalf("4-row scan over 64k keys allocates %.0f B (1k keys: %.0f B); want <= 2x and < 4 KB",
					perScan[1], perScan[0])
			}
		})
	}
}

// TestStreamedSnapshotScanReentrantAndIsolated drives a snapshot scan whose
// callback re-enters the transaction (Get and a nested Scan) while a
// concurrent writer commits to the scanned keyspace. Snapshot scans stream
// from the frozen tree rather than a materialized copy, so the in-flight
// results — outer rows, nested reads, in both directions — must still equal
// the snapshot's contents exactly.
func TestStreamedSnapshotScanReentrantAndIsolated(t *testing.T) {
	const n = 200
	e := openLoaded(t, n)
	want := make([][2][]byte, n)
	for i := range want {
		want[i] = [2][]byte{scanKey(i), []byte("v")}
	}
	tx, err := e.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()

	var stop atomic.Bool
	committed := make(chan struct{})
	var signal sync.Once
	writerErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer signal.Do(func() { close(committed) })
		for i := 0; !stop.Load(); i++ {
			err := e.Update(func(w *Txn) error {
				if err := w.Put("ks", scanKey(i%n), []byte(fmt.Sprintf("w%d", i))); err != nil {
					return err
				}
				if err := w.Put("ks", append(scanKey(i%n), '+'), []byte("new")); err != nil {
					return err
				}
				return w.Delete("ks", scanKey((i+7)%n))
			})
			if err != nil {
				writerErr <- err
				return
			}
			signal.Do(func() { close(committed) })
		}
	}()

	check := func(reverse bool) {
		var got [][2][]byte
		visit := func(k, v []byte) bool {
			if len(got) == 0 && !reverse {
				<-committed // the writer has changed the live tree mid-scan
			}
			got = append(got, [2][]byte{k, v})
			if gv, ok, err := tx.Get("ks", k); err != nil || !ok || !bytes.Equal(gv, v) {
				t.Errorf("Get(%s) inside scan = %q, %v, %v; want %q", k, gv, ok, err, v)
			}
			nested := 0
			if err := tx.Scan("ks", k, nil, func(nk, nv []byte) bool {
				if nk[len(nk)-1] == '+' || !bytes.Equal(nv, []byte("v")) {
					t.Errorf("nested scan from %s saw a post-snapshot pair %s=%q", k, nk, nv)
				}
				nested++
				return nested < 3
			}); err != nil {
				t.Errorf("nested scan: %v", err)
			}
			runtime.Gosched()
			return true
		}
		if reverse {
			err = tx.ScanReverse("ks", nil, nil, visit)
		} else {
			err = tx.Scan("ks", nil, nil, visit)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("reverse=%v: scan returned %d rows, want %d", reverse, len(got), len(want))
		}
		for i := range got {
			w := want[i]
			if reverse {
				w = want[len(want)-1-i]
			}
			if !bytes.Equal(got[i][0], w[0]) || !bytes.Equal(got[i][1], w[1]) {
				t.Fatalf("reverse=%v row %d = %s=%q, want %s=%q", reverse, i, got[i][0], got[i][1], w[0], w[1])
			}
		}
	}
	check(false)
	check(true)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-writerErr:
		t.Fatal(err)
	default:
	}
}
