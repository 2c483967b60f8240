package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Summary is a latency distribution reduced to the numbers the benchmark
// reports: the median, the 90th and 99th percentiles, and how many
// samples lie beyond the 99th, so a reader can tell a real tail from a
// handful of samples.
type Summary struct {
	N             int
	P50, P90, P99 float64 // in the unit of the samples
	Beyond99      int     // samples strictly above P99
}

// summarize computes nearest-rank percentiles over samples. It sorts a
// copy, so the caller's slice keeps its order.
func summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p99 := percentile(s, 0.99)
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > p99 })
	return Summary{N: len(s), P50: percentile(s, 0.50), P90: percentile(s, 0.90), P99: p99, Beyond99: beyond}
}

// percentile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median is the middle sample (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// String renders the summary with its sample counts.
func (s Summary) String() string {
	return fmt.Sprintf("p50=%.4g p90=%.4g p99=%.4g (n=%d, %d beyond p99)", s.P50, s.P90, s.P99, s.N, s.Beyond99)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the CPU time, user plus system, the process has used. The
// kernel does not charge a task for time the hypervisor gave its CPU to
// another guest (steal time), so steal does not inflate it the way it
// inflates wall time; other guests' use of the shared caches still does.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupTimes collects the wall and CPU seconds of repeated set-ups.
type setupTimes struct{ wall, cpu []float64 }

// time runs one set-up and records what it took.
func (st *setupTimes) time(f func() error) error {
	runtime.GC() // the previous set-up's garbage is not this one's cost
	w0, c0 := time.Now(), cpuTime()
	if err := f(); err != nil {
		return err
	}
	st.wall = append(st.wall, time.Since(w0).Seconds())
	st.cpu = append(st.cpu, (cpuTime() - c0).Seconds())
	return nil
}

// record puts the set-up figures into a result: setup_s is the median
// CPU time, setup.wall_s the median wall time.
func (st *setupTimes) record(res *result) {
	res.e2e["setup_s"] = median(st.cpu)
	res.layer["setup.wall_s"] = median(st.wall)
}
