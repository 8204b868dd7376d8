package main

import (
	"context"
	"math"
	"sort"
	"time"
)

// sample is one finished operation as its client saw it.
type sample struct {
	op    int           // position in the workload's operation sequence
	dur   time.Duration // client-observed latency: the root span
	err   error         // nil when the operation succeeded and its output was right
	shed  bool          // the daemon answered 429
	calls []call        // per-call child spans (upload sessions)
}

// call is one timed HTTP call inside an operation.
type call struct {
	name string
	dur  time.Duration
}

// opFunc runs operation i of a workload's sequence.
type opFunc func(ctx context.Context, i int) sample

// sequence is a workload's operation counter, shared by the warm-up and
// the measured loop so that they walk one continuous sequence.
type sequence struct{ next int }

// loop is the closed loop: one client that starts each operation only
// when the previous one has finished, until d has passed. The operation
// under way at the deadline runs to completion and counts.
func (q *sequence) loop(ctx context.Context, d time.Duration, do opFunc) ([]sample, time.Duration) {
	var out []sample
	start := time.Now()
	for time.Since(start) < d && ctx.Err() == nil {
		s := do(ctx, q.next)
		s.op = q.next
		q.next++
		out = append(out, s)
	}
	return out, time.Since(start)
}

// latencies summarizes the root spans of a loop.
type latencies struct {
	n, failed, shed int
	// passes is how many whole passes over the workload's mix the loop
	// completed; p50, p95 and beyondP95 are taken over those alone, so
	// the mix behind them is exact and not whatever part of a pass
	// happened to fit before the deadline.
	passes    int
	p50, p95  float64 // ms
	beyondP95 int     // samples above the p95 rank
}

// summarize counts the loop's operations and takes its latency figures.
// p50 is the median, over whole passes, of each pass's median: within a
// pass every trace and kind appears its fixed number of times, so a pass
// median is the latency of a fixed place in the mix, where a median over
// the pooled samples would fall on the edge between two traces' latency
// clusters. p95 is the nearest-rank percentile of the pooled samples of
// the whole passes. A loop too short for one whole pass uses all samples.
func summarize(ss []sample, period int) latencies {
	l := latencies{n: len(ss)}
	for _, s := range ss {
		if s.err != nil {
			l.failed++
		}
		if s.shed {
			l.shed++
		}
	}
	byPass := map[int][]float64{}
	for _, s := range ss {
		byPass[s.op/period] = append(byPass[s.op/period], float64(s.dur)/1e6)
	}
	var meds, pooled []float64
	for _, v := range byPass {
		if len(v) == period {
			meds = append(meds, median(v))
			pooled = append(pooled, v...)
		}
	}
	l.passes = len(meds)
	if l.passes == 0 {
		for _, s := range ss {
			pooled = append(pooled, float64(s.dur)/1e6)
		}
		meds = []float64{median(pooled)}
	}
	if len(pooled) == 0 {
		return l
	}
	sort.Float64s(pooled)
	l.p50 = median(meds)
	l.p95 = rank(pooled, 0.95)
	l.beyondP95 = len(pooled) - int(math.Ceil(0.95*float64(len(pooled))))
	return l
}

// rank is the nearest-rank quantile of sorted values.
func rank(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of unsorted values (the input is not modified).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
