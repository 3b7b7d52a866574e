package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile for it to count as measured rather than extrapolated.
const tailBeyond = 10

// tail is the highest percentile that has at least tailBeyond samples
// beyond it: the order statistic with exactly tailBeyond larger samples.
type tail struct {
	Value      float64 // the sample at that rank
	Percentile float64 // its rank as a percentile of the sample count
	Samples    int     // the sample count
}

// tailOf computes the tail of xs. With tailBeyond or fewer samples no
// percentile qualifies; the maximum is reported as percentile 100 so the
// caller can still see the worst case.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return tail{Value: s[n-1], Percentile: 100, Samples: n}
	}
	i := n - 1 - tailBeyond
	return tail{Value: s[i], Percentile: 100 * float64(i+1) / float64(n), Samples: n}
}

// heapSampler records the peak in-use heap while it runs. The Go runtime
// keeps no high-water mark of live heap, so it is polled.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written by the poller only; read after done closes
}

// readMetric reads one uint64 runtime metric, or 0 if the runtime does
// not export it.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// startHeapSampler polls the heap every interval until stopped.
func startHeapSampler(interval time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			h.peak = max(h.peak, readMetric("/memory/classes/heap/objects:bytes"))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the poller to exit, and returns the peak
// in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }
