// pdtbench is the repository's end-to-end benchmark. It drives the real
// pdt-tad, pdt-run and pdt-ta binaries with seeded, closed-loop traffic,
// checks every output against artifacts computed in process, and prints
// the end-to-end metrics of one workload; with -trace 1 it instead prints
// the per-layer metrics, timing each layer's public functions from
// outside the programs. See README.md for the metrics and workloads.
//
// Usage (from the repository root, after building the binaries into
// -bin; run.sh does both):
//
//	pdtbench -bin .bench_build/bin -work .bench_build/work \
//	    -workload tad-cold -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median and the fingerprints of all set-ups must agree.
const setupReps = 3

// replayReps is how often the traced run replays each layer call.
const replayReps = 3

// workload is one traffic mix against the programs.
type workload interface {
	// setup generates the inputs, computes the expected outputs and
	// starts whatever the operations talk to.
	setup(ctx context.Context) error
	// do runs operation i of the workload's sequence.
	do(ctx context.Context, i int) sample
	// begin and end bracket a measured loop; end enforces the
	// workload's guards and returns the daemon's cache counters.
	begin(ctx context.Context) error
	end(ctx context.Context, ss []sample) (cacheStats, error)
	peakRSS() (float64, error)
	// overheadPct is the PDT tracing overhead of the simulator runs
	// behind the workload's traces; fingerprint must repeat per seed.
	overheadPct() float64
	fingerprint() string
	// period is the length of the operation sequence's repeating mix.
	period() int
	inputs() []*traceInput
	diffPairs() []tracePair
	layers(i int, per map[*traceInput]costs, pairs map[tracePair]costs) costs
	uploadProbe(ctx context.Context) ([]sample, error)
	close()
}

var workloadNames = []string{"tad-cold", "tad-warm", "tad-upload", "run-ta"}

func newWorkload(name, bin, work string, seed int64) (workload, error) {
	switch name {
	case "tad-cold", "tad-warm", "tad-upload":
		return newTadBench(name, bin, seed), nil
	case "run-ta":
		return newRunTA(bin, work, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	bin, work string
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == maxRSSFlag {
		os.Exit(maxRSSHelper(os.Args[2:]))
	}
	var o options
	var trace int
	fs := flag.NewFlagSet("pdtbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&o.bin, "bin", "", "directory holding pdt-tad, pdt-run and pdt-ta")
	fs.StringVar(&o.work, "work", "", "scratch directory for trace files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.bin == "" || o.work == "" || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "pdtbench: need -workload, -bin, -work, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdtbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdtbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets the workload up setupReps times, measures it, and returns
// the metrics; the human-readable report goes to out.
func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	var w workload
	var setups []float64
	var fp string
	for r := 0; r < setupReps; r++ {
		next, err := newWorkload(o.workload, o.bin, o.work, o.seed)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		err = next.setup(ctx)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			next.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		if r == 0 {
			fp = next.fingerprint()
		} else if got := next.fingerprint(); got != fp {
			next.close()
			return nil, fmt.Errorf("seed %d is not deterministic: set-up %d produced\n%s\nset-up 1 produced\n%s", o.seed, r+1, got, fp)
		}
		if r < setupReps-1 {
			next.close()
		}
		w = next
	}
	defer w.close()

	fmt.Fprintf(out, "pdtbench %s seed=%d, one closed-loop client, %ds measured, traced=%v\n",
		o.workload, o.seed, o.seconds, o.trace)
	ts := w.inputs()
	var bytes int
	for _, t := range ts {
		bytes += len(t.data)
	}
	fmt.Fprintf(out, "  inputs: %d traces, %.2f MB, set-up fingerprint %s\n",
		len(ts), float64(bytes)/1e6, sha([]byte(fp))[:16])

	seq := &sequence{}
	// Warm-up: let the heap, the connection pool and the daemon settle.
	seq.loop(ctx, time.Second, w.do)

	d := time.Duration(o.seconds) * time.Second
	if o.trace {
		return traced(ctx, w, o, d, seq, out)
	}
	if err := w.begin(ctx); err != nil {
		return nil, err
	}
	ss, elapsed := seq.loop(ctx, d, w.do)
	if _, err := w.end(ctx, ss); err != nil {
		return nil, err
	}
	rss, err := w.peakRSS()
	if err != nil {
		return nil, err
	}
	l := summarize(ss, w.period())
	for _, s := range ss {
		if s.err != nil {
			fmt.Fprintf(os.Stderr, "pdtbench: operation %d failed: %v\n", s.op, s.err)
			break
		}
	}
	res := &result{
		Correct:   l.failed == 0,
		Attempted: l.n,
		Failed:    l.failed,
		Metrics: map[string]metric{
			"setup_s":            {median(setups), "s"},
			"p50_ms":             {l.p50, "ms"},
			"p95_ms":             {l.p95, "ms"},
			"ops_per_s":          {float64(l.n-l.failed) / elapsed.Seconds(), "1/s"},
			"ok_frac":            {float64(l.n-l.failed) / float64(max(l.n, 1)), "ratio"},
			"peak_rss_mb":        {rss, "MiB"},
			"trace_overhead_pct": {w.overheadPct(), "%"},
		},
	}
	fmt.Fprintf(out, "  set-ups (s): %s\n", floats(setups, "%.3f"))
	fmt.Fprintf(out, "  %d operations, %d failed (fail_frac %.4f); %d whole passes of %d: p50 %.3f ms, p95 %.3f ms over %d samples (%d beyond p95)\n",
		l.n, l.failed, float64(l.failed)/float64(max(l.n, 1)), l.passes, w.period(), l.p50, l.p95, l.passes*w.period(), l.beyondP95)
	if l.beyondP95 < 10 {
		fmt.Fprintf(os.Stderr, "pdtbench: warning: only %d samples beyond p95; raise -seconds\n", l.beyondP95)
	}
	printMetrics(out, res.Metrics)
	return res, nil
}

// traced is the separate traced run. Its loop is the untraced run's
// loop: each operation's client-observed root span is the latency sample
// it records anyway, kept in memory with the operation's sequence
// position, and upload sessions keep their per-call child spans. The
// layer spans come afterwards, out of band, from replaying every layer
// on the workload's own inputs, so no replay overlaps a timed call. The
// traced run's overhead is therefore the replay's wall time.
func traced(ctx context.Context, w workload, o options, d time.Duration, seq *sequence, out io.Writer) (*result, error) {
	if err := w.begin(ctx); err != nil {
		return nil, err
	}
	spanned, elapsed := seq.loop(ctx, d, w.do)
	st, err := w.end(ctx, spanned)
	if err != nil {
		return nil, err
	}
	lt := summarize(spanned, w.period())

	t0 := time.Now()
	per, pairs, err := replayAll(ctx, o.bin, o.work, w.inputs(), w.diffPairs(), replayReps)
	if err != nil {
		return nil, err
	}
	probe, err := w.uploadProbe(ctx)
	if err != nil {
		return nil, err
	}
	if probe == nil {
		probe = spanned
	}
	replay := time.Since(t0)

	m := map[string]metric{}
	meanOver := func(name, unit string) {
		var sum float64
		for _, t := range w.inputs() {
			sum += per[t][name]
		}
		m[name] = metric{sum / float64(len(w.inputs())), unit}
	}
	for _, n := range []string{"cache.keyof_ms", "traceio.parse_ms", "traceio.decode_ms", "analyzer.load_ms",
		"analyzer.validate_ms", "analyzer.summarize_ms", "analyzer.profile_ms", "analyzer.gaps_ms",
		"analyzer.critpath_ms", "analyzer.doctor_ms", "analyzer.render_ms", "analyzer.report_ms",
		"analyzer.stream_ms", "cycles.detect_ms", "sim.untraced_ms", "core.trace_extra_ms"} {
		meanOver(n, "ms")
	}
	meanOver("cache.peek_us", "us")
	meanOver("analyzer.load_alloc_x", "x")
	meanOver("cycles.detect_allocs", "count")
	var align, alignAllocs float64
	for _, c := range pairs {
		align += c["diff.align_ms"]
		alignAllocs += c["diff.align_allocs"]
	}
	m["diff.align_ms"] = metric{align / float64(len(pairs)), "ms"}
	m["diff.align_allocs"] = metric{alignAllocs / float64(len(pairs)), "count"}

	var cyc, simMs float64
	for _, t := range w.inputs() {
		cyc += float64(t.untraced)
		simMs += per[t]["sim.untraced_ms"]
	}
	m["sim.mcycles_per_s"] = metric{cyc / 1e6 / (simMs / 1e3), "Mcycle/s"}
	cc := coreCounts(w.inputs())
	m["core.records"] = metric{float64(cc.SPERecords + cc.PPERecords), "count"}
	m["core.flushes"] = metric{float64(cc.Flushes), "count"}
	m["core.flush_cycles"] = metric{float64(cc.FlushCycles), "cycles"}
	m["core.dropped"] = metric{float64(cc.Dropped), "count"}

	var ratio float64
	if lookups := st.Hits + st.Misses + st.Dedups; lookups > 0 {
		ratio = float64(st.Hits) / float64(lookups)
	}
	m["tad.cache_hit_ratio"] = metric{ratio, "ratio"}
	m["tad.cache_evictions"] = metric{float64(st.Evictions), "count"}
	m["tad.shed"] = metric{float64(lt.shed), "count"}
	callMean := func(name string) float64 {
		var sum float64
		var n int
		for _, s := range probe {
			for _, c := range s.calls {
				if c.name == name {
					sum += float64(c.dur) / 1e6
					n++
				}
			}
		}
		return sum / float64(max(n, 1))
	}
	m["tad.upload_append_ms"] = metric{callMean("append"), "ms"}
	m["tad.upload_complete_ms"] = metric{callMean("complete"), "ms"}

	// Layer sum: the on-path spans of every spanned operation, priced by
	// the replay, against its root span.
	rows := costs{}
	var root float64
	for _, s := range spanned {
		root += float64(s.dur) / 1e6
		for k, v := range w.layers(s.op, per, pairs) {
			rows[k] += v
		}
	}
	n := float64(max(len(spanned), 1))
	root /= n
	var sum float64
	for k := range rows {
		rows[k] /= n
		sum += rows[k]
	}
	m["tad.residual_ms"] = metric{root - sum, "ms"}
	overhead := 100 * replay.Seconds() / elapsed.Seconds()
	m["trace.overhead_pct"] = metric{overhead, "%"}

	fmt.Fprintf(out, "  layer sum over %d spanned operations (mean ms per operation; end-to-end p50 %.3f ms, mean %.3f ms):\n",
		len(spanned), lt.p50, root)
	names := make([]string, 0, len(rows))
	for k := range rows {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return rows[names[i]] > rows[names[j]] })
	for _, k := range names {
		fmt.Fprintf(out, "    %-24s %10.3f  %5.1f%%\n", k, rows[k], 100*rows[k]/root)
	}
	fmt.Fprintf(out, "    %-24s %10.3f  %5.1f%%  (unaccounted: body read, copies, admission, HTTP, process start)\n",
		"residual", root-sum, 100*(root-sum)/root)
	fmt.Fprintf(out, "  traced-run overhead: the replay took %.2f s after a %.2f s loop (%.1f%%); spans add no work inside the loop\n",
		replay.Seconds(), elapsed.Seconds(), overhead)
	printMetrics(out, m)
	return &result{Correct: lt.failed == 0, Attempted: lt.n, Failed: lt.failed, Metrics: m}, nil
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-24s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

func floats(vs []float64, format string) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf(format, v)
	}
	return strings.Join(parts, " ")
}
