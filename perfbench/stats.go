package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// sorts xs in place. Failed operations enter as +Inf, so they count as
// missing every latency limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the nearest-rank 50th percentile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// segments cuts [0, n) into k consecutive ranges whose lengths differ by
// at most one.
func segments(n, k int) [][2]int {
	out := make([][2]int, 0, k)
	for j := 0; j < k; j++ {
		out = append(out, [2]int{j * n / k, (j + 1) * n / k})
	}
	return out
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is this process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024
}

// memWatch records Go runtime allocation and GC deltas over a measured
// phase and samples the live heap for its peak.
type memWatch struct {
	start runtime.MemStats
	stop  chan struct{}
	done  sync.WaitGroup
	peak  uint64
}

// watchMem starts a memWatch sampling HeapAlloc every 20ms.
func watchMem() *memWatch {
	w := &memWatch{stop: make(chan struct{})}
	runtime.ReadMemStats(&w.start)
	w.peak = w.start.HeapAlloc
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > w.peak {
					w.peak = ms.HeapAlloc
				}
			}
		}
	}()
	return w
}

// memDelta is what a memWatch saw over its phase.
type memDelta struct {
	mallocs uint64
	gcs     uint32
	peakMiB float64
}

// finish stops the sampler and returns the deltas.
func (w *memWatch) finish() memDelta {
	close(w.stop)
	w.done.Wait()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if end.HeapAlloc > w.peak {
		w.peak = end.HeapAlloc
	}
	return memDelta{
		mallocs: end.Mallocs - w.start.Mallocs,
		gcs:     end.NumGC - w.start.NumGC,
		peakMiB: float64(w.peak) / (1 << 20),
	}
}
