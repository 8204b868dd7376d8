package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// costs maps a layer span name to its time on one trace (ms unless the
// name says otherwise): the median over the replay repetitions.
type costs map[string]float64

// spans collects one repetition's span durations per name.
type spans map[string][]float64

func (s spans) time(name string, f func()) {
	t0 := time.Now()
	f()
	s[name] = append(s[name], float64(time.Since(t0))/1e6)
}

func (s spans) medians() costs {
	c := costs{}
	for k, v := range s {
		c[k] = median(v)
	}
	return c
}

// allocs runs f and returns the bytes and objects it allocated. The
// replay runs alone in the process, so the global counters are its own.
func allocs(f func()) (bytes, objects uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.Mallocs - a.Mallocs
}

// replayTrace calls every in-process layer's public functions on one
// trace's bytes, reps times, in the order a cold pdt-tad request does.
func replayTrace(ctx context.Context, t *traceInput, reps int) (costs, error) {
	lim := serviceLimits()
	s := spans{}
	c := cache.New(0, 0)
	key := cache.KeyOf(t.data)
	if _, err := c.Artifact(ctx, t.data, cache.KindSummary, lim); err != nil {
		return nil, err
	}
	for r := 0; r < reps; r++ {
		s.time("cache.keyof_ms", func() { key = cache.KeyOf(t.data) })
		const peeks = 1000
		s.time("cache.peek_us", func() {
			for i := 0; i < peeks; i++ {
				c.Peek(key, cache.KindSummary)
			}
		})
		s["cache.peek_us"][r] *= 1000.0 / peeks

		var f *traceio.File
		var tr *analyzer.Trace
		var err error
		s.time("traceio.parse_ms", func() { f, err = traceio.ParseContext(ctx, t.data, lim) })
		if err != nil {
			return nil, err
		}
		s.time("traceio.decode_ms", func() {
			for _, ch := range f.Chunks {
				if _, _, derr := traceio.DecodeChunkContext(ctx, ch, lim); derr != nil && err == nil {
					err = derr
				}
			}
		})
		if err != nil {
			return nil, err
		}
		ab, _ := allocs(func() {
			s.time("analyzer.load_ms", func() { tr, err = analyzer.FromFileContext(ctx, f, lim) })
		})
		if err != nil {
			return nil, err
		}
		pb, _ := allocs(func() { _, _ = traceio.ParseContext(ctx, t.data, lim) })
		s["analyzer.load_alloc_x"] = append(s["analyzer.load_alloc_x"], float64(ab+pb)/float64(len(t.data)))
		s.time("analyzer.validate_ms", func() { analyzer.Validate(tr) })

		var sum *analyzer.Summary
		var pairs []analyzer.PairProfile
		var gapMin uint64
		var gaps []analyzer.Gap
		var cp *analyzer.CriticalPath
		var cyc *cycles.Report
		var doc *analyzer.DoctorReport
		s.time("analyzer.summarize_ms", func() { sum = analyzer.Summarize(tr) })
		s.time("analyzer.profile_ms", func() { pairs = analyzer.Profile(tr) })
		s.time("analyzer.gaps_ms", func() {
			gapMin = analyzer.SuggestGapThreshold(tr)
			gaps = analyzer.FindGaps(tr, gapMin)
		})
		s.time("analyzer.critpath_ms", func() { cp = analyzer.ComputeCriticalPath(tr) })
		_, co := allocs(func() {
			s.time("cycles.detect_ms", func() { cyc = cycles.Detect(tr, cycles.Options{}) })
		})
		s["cycles.detect_allocs"] = append(s["cycles.detect_allocs"], float64(co))
		s.time("analyzer.doctor_ms", func() { doc, err = analyzer.DoctorDataContext(ctx, t.data, lim) })
		if err != nil {
			return nil, err
		}
		writers := map[string]func(w io.Writer) error{
			"summary":  func(w io.Writer) error { return analyzer.WriteJSON(tr, sum, w) },
			"profile":  func(w io.Writer) error { return analyzer.WriteProfilePairsJSON(tr, pairs, w) },
			"gaps":     func(w io.Writer) error { return analyzer.WriteGapsJSON(gapMin, gaps, w) },
			"critpath": func(w io.Writer) error { return analyzer.WriteCriticalPathJSON(cp, w) },
			"cycles":   cyc.WriteJSON,
			"doctor":   doc.WriteJSON,
		}
		for _, k := range artifactKinds {
			var buf bytes.Buffer
			s.time("render."+k, func() { err = writers[k](&buf) })
			if err != nil {
				return nil, err
			}
		}
		s.time("analyzer.report_ms", func() { analyzer.Report(tr, sum, io.Discard) })
		s.time("analyzer.stream_ms", func() { err = stream(ctx, t.data) })
		if err != nil {
			return nil, err
		}
	}
	out := s.medians()
	var r float64
	for _, k := range artifactKinds {
		r += out["render."+k]
	}
	out["analyzer.render_ms"] = r / float64(len(artifactKinds))
	return out, nil
}

// stream feeds the bytes through a StreamLoader the way an upload
// session does: validation on, 256 KiB reads, then Finish.
func stream(ctx context.Context, data []byte) error {
	lim := serviceLimits()
	lim.MaxFileBytes = 256 << 20 // pdt-tad's -max-upload-bytes default
	l := analyzer.NewStreamLoader(analyzer.StreamOptions{Limits: lim, Validate: true, Ctx: ctx})
	for off := 0; off < len(data); off += 256 << 10 {
		if _, err := l.Write(data[off:min(off+256<<10, len(data))]); err != nil {
			return err
		}
	}
	_, err := l.Finish()
	return err
}

// replayPair times the cycle-aligned diff of a same-workload pair, with
// the critical paths and cycle reports supplied as pdt-tad supplies them
// from its memo, so the span holds the diff layer alone.
func replayPair(ctx context.Context, p tracePair, reps int) (costs, error) {
	lim := serviceLimits()
	var trs [2]*analyzer.Trace
	for i, t := range []*traceInput{p.a, p.b} {
		tr, err := analyzer.LoadContext(ctx, bytes.NewReader(t.data), lim)
		if err != nil {
			return nil, err
		}
		analyzer.Validate(tr)
		trs[i] = tr
	}
	opt := diff.Options{
		Mode:      diff.ModeAlign,
		CritPathA: analyzer.ComputeCriticalPath(trs[0]), CritPathB: analyzer.ComputeCriticalPath(trs[1]),
		CyclesA: cycles.Detect(trs[0], cycles.Options{}), CyclesB: cycles.Detect(trs[1], cycles.Options{}),
	}
	s := spans{}
	for r := 0; r < reps; r++ {
		var rep *diff.Report
		var err error
		_, n := allocs(func() {
			s.time("diff.align_ms", func() { rep, err = diff.Diff(trs[0], trs[1], opt) })
		})
		if err != nil {
			return nil, err
		}
		s["diff.align_allocs"] = append(s["diff.align_allocs"], float64(n))
		s.time("render.diff", func() { err = rep.WriteJSON(io.Discard) })
		if err != nil {
			return nil, err
		}
	}
	return s.medians(), nil
}

// replaySim times pdt-run untraced and traced for the config behind one
// trace. The simulator is timed as a pdt-run process, not as an
// in-process harness.RunContext: every run allocates the simulated
// machine's 64 MiB of memory, which a fresh process gets as untouched
// zero pages but a long-lived one must clear, so in process the span
// would mostly measure the benchmark's own heap. The traced run also
// writes the trace and loads it back, so the tracer's own host cost is
// traced - untraced - (parse + load).
func replaySim(ctx context.Context, bin, work string, t *traceInput, reps int) (costs, error) {
	s := spans{}
	runs := []struct {
		span string
		args []string
	}{
		{"sim.untraced_ms", append(t.cfg.args(), "-untraced")},
		{"sim.traced_ms", append(t.cfg.args(), "-o", filepath.Join(work, "replay.pdt"))},
	}
	for r := 0; r < reps; r++ {
		for _, run := range runs {
			var err error
			s.time(run.span, func() {
				err = exec.CommandContext(ctx, filepath.Join(bin, "pdt-run"), run.args...).Run()
			})
			if err != nil {
				return nil, fmt.Errorf("pdt-run %s: %w", t.cfg.Name, err)
			}
		}
	}
	return s.medians(), nil
}

// replayAll replays every trace, every diff pair and every simulator
// config of a workload.
func replayAll(ctx context.Context, bin, work string, ts []*traceInput, ps []tracePair, reps int) (map[*traceInput]costs, map[tracePair]costs, error) {
	per := map[*traceInput]costs{}
	for _, t := range ts {
		c, err := replayTrace(ctx, t, reps)
		if err != nil {
			return nil, nil, fmt.Errorf("replay %s: %w", t.cfg.Name, err)
		}
		sc, err := replaySim(ctx, bin, work, t, reps)
		if err != nil {
			return nil, nil, fmt.Errorf("replay sim %s: %w", t.cfg.Name, err)
		}
		for k, v := range sc {
			c[k] = v
		}
		c["core.trace_extra_ms"] = c["sim.traced_ms"] - c["sim.untraced_ms"] - c["traceio.parse_ms"] - c["analyzer.load_ms"]
		per[t] = c
	}
	pairs := map[tracePair]costs{}
	for _, p := range ps {
		c, err := replayPair(ctx, p, reps)
		if err != nil {
			return nil, nil, fmt.Errorf("replay diff %s/%s: %w", p.a.cfg.Name, p.b.cfg.Name, err)
		}
		pairs[p] = c
	}
	return per, pairs, nil
}
