package main

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop generator offers requests on a fixed schedule whatever
// the server does, the way independent users arrive. A timer sleep on
// a small VM overshoots by about a millisecond, so requests are not
// scheduled one sleep apart: the schedule is a train of ticks the
// generator can keep, each tick releases the requests due in it, and
// every request is timed from its tick. The generator sleeps to just
// short of each tick and spins the rest of the way, yielding to other
// goroutines as it spins; how late it still woke is reported as the
// lag, so a run whose lag is large next to the latency it measures can
// be marked invalid.

const (
	tickPeriod = 2 * time.Millisecond
	// spinGuard is how early the generator stops sleeping before a tick:
	// a 1.1 ms sleep on a small VM overshoots by a few hundred µs under
	// load, and a shorter guard left the generator late on most ticks.
	spinGuard = 900 * time.Microsecond
	// drainLimit bounds how long queued requests may still run after
	// the offering window; whatever is left is dropped, not sent.
	drainLimit = time.Second
)

// openLoop describes one fixed-rate phase.
type openLoop struct {
	Rate     float64       // requests per second
	Duration time.Duration // offering window
	Workers  int           // request goroutines, each with its own connection
	// Do sends request i; an error counts the request as failed.
	Do func(i int) error
}

// openResult is what one phase measured.
type openResult struct {
	Latency   []float64 // µs from due time, +Inf for failed requests
	At        []float64 // s from the window's start to each request's due time
	Lag       []float64 // µs the generator woke after each tick
	Offered   int       // requests released by the generator
	Completed int       // answered without error
	Failed    int
	Dropped   int // released but never sent: still queued at the drain limit
	Backlog   int // requests queued when the offering window closed
	Window    time.Duration
}

// ticksFor is how many requests tick k of a schedule at rate releases:
// the integer part of the credit accrued so far minus what earlier
// ticks released, so the count over any prefix of ticks is within one
// of rate × elapsed time.
func ticksFor(rate float64, k int) int {
	per := rate * tickPeriod.Seconds()
	return int(math.Floor(per*float64(k+1))) - int(math.Floor(per*float64(k)))
}

// sleepUntil returns at t or as soon as possible after it.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinGuard; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

type job struct {
	i   int
	due time.Time
}

// run offers the phase's requests, numbering them from first, and waits
// until every worker has exited.
func (ol openLoop) run(first int) openResult {
	ticks := int(ol.Duration / tickPeriod)
	total := 0
	for k := 0; k < ticks; k++ {
		total += ticksFor(ol.Rate, k)
	}
	jobs := make(chan job, total) // sized to the number of sends
	start := time.Now().Add(tickPeriod)
	res := openResult{Lag: make([]float64, 0, ticks)}
	var cancel atomic.Bool
	type tally struct {
		lat, at               []float64
		done, failed, dropped int
	}
	tallies := make([]tally, ol.Workers)
	var wg sync.WaitGroup
	for w := 0; w < ol.Workers; w++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for j := range jobs {
				if cancel.Load() {
					t.dropped++
					continue
				}
				err := ol.Do(j.i)
				lat := micros(time.Since(j.due))
				if err != nil {
					t.failed++
					lat = math.Inf(1)
				} else {
					t.done++
				}
				t.lat = append(t.lat, lat)
				t.at = append(t.at, j.due.Sub(start).Seconds())
			}
		}(&tallies[w])
	}

	next := first
	for k := 0; k < ticks; k++ {
		due := start.Add(time.Duration(k) * tickPeriod)
		sleepUntil(due)
		res.Lag = append(res.Lag, micros(time.Since(due)))
		for r := ticksFor(ol.Rate, k); r > 0; r-- {
			jobs <- job{i: next, due: due}
			next++
		}
	}
	res.Window = time.Duration(ticks) * tickPeriod
	res.Backlog = len(jobs)
	res.Offered = next - first
	close(jobs)
	stop := time.AfterFunc(drainLimit, func() { cancel.Store(true) })
	wg.Wait()
	stop.Stop()
	for _, t := range tallies {
		res.Latency = append(res.Latency, t.lat...)
		res.At = append(res.At, t.at...)
		res.Completed += t.done
		res.Failed += t.failed
		res.Dropped += t.dropped
	}
	return res
}

// windowed splits a phase of dur seconds into windows of equal length
// by due time and returns the medians of the windows' p50, p90 and p99. A
// disturbance from outside the program — another tenant, a timer
// storm — lands in one window and moves the medians less than it
// moves a percentile of the whole phase.
func windowed(lat, at []float64, dur float64, windows int) (p50, p90, p99 float64) {
	buckets := make([][]float64, windows)
	for i, l := range lat {
		w := min(int(at[i]/dur*float64(windows)), windows-1)
		buckets[w] = append(buckets[w], l)
	}
	var p50s, p90s, p99s []float64
	for _, b := range buckets {
		if len(b) > 0 {
			s := summarize(b)
			p50s, p90s, p99s = append(p50s, s.P50), append(p90s, s.P90), append(p99s, s.P99)
		}
	}
	return median(p50s), median(p90s), median(p99s)
}

// ladderStep is one rate of the max-rate ladder.
type ladderStep struct {
	Rate     float64 // offered req/s
	Achieved float64 // completed req/s over the offering window
	P99      float64 // µs, failed requests counted as infinitely slow
	Backlog  int     // queued requests when the window closed
	Dropped  int
	Failed   int
	Window   float64 // s
}

// backlogLimit is the queue length at the end of a step beyond which
// the backlog counts as growing: two ticks' worth of requests.
func backlogLimit(rate float64) int {
	return int(math.Ceil(2*rate*tickPeriod.Seconds())) + 1
}

// passes reports whether the step met the p99 limit (µs) with no
// growing backlog.
func (s ladderStep) passes(limitUs float64) bool {
	return s.P99 <= limitUs && s.Backlog <= backlogLimit(s.Rate) && s.Dropped == 0
}

// maxRate is the offered rate of the highest ladder step that passed,
// 0 when the first step already failed. runLadder stops at the first
// failing step, so the steps before it all passed.
func maxRate(steps []ladderStep, limitUs float64) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.passes(limitUs) {
			break
		}
		best = s.Rate
	}
	return best
}

// runLadder offers each rate for stepDur in turn and stops at the
// first failing step. mk builds the phase for a rate; requests are
// numbered on from first so no step repeats another's inputs. It
// returns the steps run and the next unused request number.
func runLadder(rates []float64, stepDur time.Duration, limitUs float64, first int, mk func(rate float64) openLoop) ([]ladderStep, int) {
	var steps []ladderStep
	for _, rate := range rates {
		ol := mk(rate)
		ol.Duration = stepDur
		r := ol.run(first)
		first += r.Offered
		st := ladderStep{
			Rate:     rate,
			Achieved: float64(r.Completed) / r.Window.Seconds(),
			P99:      summarize(r.Latency).P99,
			Backlog:  r.Backlog,
			Dropped:  r.Dropped,
			Failed:   r.Failed,
			Window:   r.Window.Seconds(),
		}
		steps = append(steps, st)
		if !st.passes(limitUs) {
			break
		}
	}
	return steps, first
}

// saturation is what a back-to-back phase measured.
type saturation struct {
	p50, p90, p99     float64 // µs, medians over one-second windows
	rate              float64 // completions/s, median over half-second windows
	cpuPerOp          float64 // CPU ms per completed request
	next              int     // next unused request number
	attempted, failed int
}

// saturate runs workers that send back to back, numbering requests on
// from first: for dur, or, when limit > 0, until limit requests have
// been sent, so the phase covers a fixed amount of work.
func saturate(workers int, dur time.Duration, first, limit int, do func(i int) error) saturation {
	var counter atomic.Int64
	counter.Store(int64(first))
	if limit > 0 {
		dur = time.Hour
	}
	c0, t0 := cpuTime(), time.Now()
	runs := closedLoop(workers, dur, func(int, int) (int, error) {
		i := int(counter.Add(1) - 1)
		if limit > 0 && i >= first+limit {
			return 0, errStop
		}
		return 0, do(i)
	})
	cpu, elapsed := cpuTime()-c0, time.Since(t0)
	s := saturation{rate: windowRate(runs, elapsed.Seconds(), 0.5), next: int(counter.Load())}
	s.attempted, s.failed = countOps(runs)
	var lat, at []float64
	for _, ops := range runs {
		for _, op := range ops {
			lat, at = append(lat, op.latency()), append(at, op.End)
		}
	}
	s.p50, s.p90, s.p99 = windowed(lat, at, elapsed.Seconds(), windowsOf(elapsed))
	s.cpuPerOp = millis(cpu) / float64(max(1, s.attempted-s.failed))
	return s
}

// windowRate is the median completion rate over the full windows of
// width seconds in the first dur seconds of a closed loop; failed
// operations do not count as completions.
func windowRate(runs [][]closedOp, dur, width float64) float64 {
	windows := max(1, int(dur/width))
	counts := make([]float64, windows)
	for _, ops := range runs {
		for _, op := range ops {
			if w := int(op.End / width); op.Err == nil && w < windows {
				counts[w]++
			}
		}
	}
	return median(counts) / width
}

func countOps(runs [][]closedOp) (attempted, failed int) {
	for _, ops := range runs {
		for _, op := range ops {
			attempted++
			if op.Err != nil {
				failed++
			}
		}
	}
	return attempted, failed
}

// closedOp is one operation of a closed loop.
type closedOp struct {
	Kind    int
	Latency float64 // µs
	End     float64 // s from the loop's start to completion
	Err     error
}

// latency is the operation's latency in µs, +Inf when it failed.
func (op closedOp) latency() float64 {
	if op.Err != nil {
		return math.Inf(1)
	}
	return op.Latency
}

// errStop ends a closed-loop client without counting an operation.
var errStop = errors.New("stop")

// closedLoop runs clients that each send their next operation as soon
// as the previous one returns, until dur has passed or do returns
// errStop, and waits for all of them. do performs operation k of
// client c and reports its kind.
func closedLoop(clients int, dur time.Duration, do func(c, k int) (kind int, err error)) [][]closedOp {
	out := make([][]closedOp, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				t0 := time.Now()
				kind, err := do(c, k)
				if err == errStop {
					return
				}
				out[c] = append(out[c], closedOp{Kind: kind, Latency: micros(time.Since(t0)), End: time.Since(start).Seconds(), Err: err})
			}
		}(c)
	}
	wg.Wait()
	return out
}
