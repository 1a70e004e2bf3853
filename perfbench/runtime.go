package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// rtSample is a point-in-time reading of the Go runtime's allocation and
// GC counters.
type rtSample struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// rtDelta is what the runtime did between two samples.
type rtDelta struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, totalCPU                    float64
}

func (a rtSample) to(b rtSample) rtDelta {
	return rtDelta{
		allocBytes:   float64(b.allocBytes - a.allocBytes),
		allocObjects: float64(b.allocObjects - a.allocObjects),
		gcCycles:     float64(b.gcCycles - a.gcCycles),
		gcCPU:        b.gcCPU - a.gcCPU,
		totalCPU:     b.totalCPU - a.totalCPU,
	}
}

func (d rtDelta) add(e rtDelta) rtDelta {
	return rtDelta{d.allocBytes + e.allocBytes, d.allocObjects + e.allocObjects, d.gcCycles + e.gcCycles,
		d.gcCPU + e.gcCPU, d.totalCPU + e.totalCPU}
}

// gcCPUShare is the share of the available CPU time the GC used.
func (d rtDelta) gcCPUShare() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

// traceSlices is how many times a traced run alternates between its
// untraced and traced halves, so that both see the same machine and
// database state.
const traceSlices = 5

// interleave runs untraced and traced alternately for d in total.
func interleave(d time.Duration, untraced, traced func(time.Duration)) {
	slice := d / (2 * traceSlices)
	for i := 0; i < traceSlices; i++ {
		untraced(slice)
		traced(slice)
	}
}

// measured runs fn and adds what the runtime did meanwhile to *d.
func measured(d *rtDelta, fn func()) {
	rt0 := readRuntime()
	fn()
	*d = d.add(rt0.to(readRuntime()))
}

// liveHeapMB forces a collection and returns the live heap in megabytes.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// allocBytesNow reads the cumulative allocated-bytes counter alone; the
// tracer samples it around single calls.
func allocBytesNow() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sample is one completed operation: its latency in microseconds and its
// class.
type sample struct {
	us    float64
	class string
}

// classWeighted returns the mean over operation classes of each class's
// q-quantile latency, weighted by the class's share of the operations.
func classWeighted(samples []sample, q float64) float64 {
	by := map[string][]float64{}
	for _, s := range samples {
		by[s.class] = append(by[s.class], s.us)
	}
	sum := 0.0
	for _, l := range by {
		sum += float64(len(l)) * percentile(l, q)
	}
	return sum / float64(max(len(samples), 1))
}
