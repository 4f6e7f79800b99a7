package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// pct is a nearest-rank percentile with the sample count behind it.
type pct struct {
	value  float64 // the sample at rank ceil(p/100 · n)
	n      int     // samples, failures included as +Inf
	beyond int     // samples strictly above value
}

// percentile returns the nearest-rank p-th percentile of samples. Failed
// operations are passed as +Inf, so they count as missing any latency
// limit. It does not modify samples.
func percentile(samples []float64, p float64) pct {
	n := len(samples)
	if n == 0 {
		return pct{value: math.NaN()}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	v := s[rank-1]
	beyond := n - sort.Search(n, func(i int) bool { return s[i] > v })
	return pct{value: v, n: n, beyond: beyond}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 { return percentile(xs, 50).value }

// interval is a half-open [start, end) time range in nanoseconds.
type interval struct{ start, end int64 }

// unionLen is the total length covered by the intervals: overlapping
// children (scatter legs, hedge attempts) count once.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// selfTime is a span's duration minus the part of it its children cover,
// children clipped to the parent's interval.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return parent.end - parent.start - unionLen(clipped)
}

// cpuTime is the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the cumulative bytes allocated on the heap.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapBytes forces collections and returns the heap live after
// them. The second collection frees what sync.Pool victim caches kept
// alive through the first.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcStats is the cumulative GC cycle count and stop-the-world pause.
func gcStats() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}

// usage is a snapshot of the process counters a phase is measured by.
type usage struct {
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	gcPause time.Duration
}

func readUsage() usage {
	u := usage{cpu: cpuTime(), alloc: allocBytes()}
	u.gcs, u.gcPause = gcStats()
	return u
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, alloc: u.alloc - v.alloc, gcs: u.gcs - v.gcs, gcPause: u.gcPause - v.gcPause}
}

func (u usage) add(v usage) usage {
	return usage{cpu: u.cpu + v.cpu, alloc: u.alloc + v.alloc, gcs: u.gcs + v.gcs, gcPause: u.gcPause + v.gcPause}
}
