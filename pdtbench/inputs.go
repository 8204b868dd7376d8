package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
)

// runConfig is one simulator run: a paper workload and its parameters.
type runConfig struct {
	Name     string // short label, unique within a workload
	Workload string
	Params   map[string]string
}

// args renders the config as pdt-run flags.
func (c runConfig) args() []string {
	keys := make([]string, 0, len(c.Params))
	for k := range c.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := []string{"-workload", c.Workload}
	for _, k := range keys {
		out = append(out, "-param", k+"="+c.Params[k])
	}
	return out
}

// traceInput is one generated trace together with what the simulator
// reported while producing it.
type traceInput struct {
	cfg      runConfig
	data     []byte
	digest   string // hex SHA-256 of data (the daemon's cache key)
	cycles   uint64 // simulated cycles, traced
	untraced uint64 // simulated cycles, untraced
	stats    core.Stats
}

// tracePair is two traces of the same workload: the two sides of a diff.
type tracePair struct{ a, b *traceInput }

// seeded draws the per-seed variation of the inputs. The seed changes the
// data the kernels compute on and the exact event counts, never the shape
// of a workload: sizes, mix and event rates stay put, so two seeds give
// comparable figures and a held-out seed can check a claim.
type seeded struct{ r *rand.Rand }

func newSeeded(seed int64) seeded { return seeded{rand.New(rand.NewSource(seed))} }

// dataSeed is a workload data seed.
func (s seeded) dataSeed() string { return fmt.Sprint(1 + s.r.Intn(1<<20)) }

// around returns base plus up to 1/64 of it, so event counts (and with
// them trace sizes) vary by under 2%.
func (s seeded) around(base int) string { return fmt.Sprint(base + s.r.Intn(base/64+1)) }

func synthetic(name string, events string, gap string) runConfig {
	return runConfig{name, "synthetic", map[string]string{"events": events, "gap": gap}}
}

// tadPairs is the pool of tad-cold and tad-upload: nine same-workload
// pairs whose sizes run from about 10 KB to about 8 MB. The sizes are
// spread roughly log-uniformly so the upper tail of the latency
// distribution is a continuum, not a few isolated clusters.
func tadPairs(seed int64) [][2]runConfig {
	s := newSeeded(seed)
	mm := s.dataSeed()
	st := s.dataSeed()
	pl, pl2 := s.dataSeed(), s.dataSeed()
	return [][2]runConfig{
		{
			{"matmul-1buf", "matmul", map[string]string{"n": "64", "t": "16", "buffers": "1", "seed": mm}},
			{"matmul-2buf", "matmul", map[string]string{"n": "64", "t": "16", "buffers": "2", "seed": mm}},
		},
		{
			{"julia-static", "julia", map[string]string{"w": "64", "h": "32", "maxiter": "16", "mode": "static"}},
			{"julia-dynamic", "julia", map[string]string{"w": "64", "h": "32", "maxiter": "16", "mode": "dynamic"}},
		},
		{
			{"stencil-small", "stencil", map[string]string{"w": "64", "h": "16", "iters": "2", "seed": st}},
			{"stencil-large", "stencil", map[string]string{"w": "256", "h": "128", "iters": "8", "seed": st}},
		},
		{
			{"pipeline-even", "pipeline", map[string]string{"blocks": "8", "blockbytes": "1024", "seed": pl}},
			{"pipeline-slow", "pipeline", map[string]string{"blocks": "8", "blockbytes": "1024", "slowstage": "2", "seed": pl}},
		},
		{
			{"pipeline64-even", "pipeline", map[string]string{"blocks": "64", "blockbytes": "4096", "seed": pl2}},
			{"pipeline64-slow", "pipeline", map[string]string{"blocks": "64", "blockbytes": "4096", "slowstage": "2", "seed": pl2}},
		},
		{synthetic("synth-120k", s.around(400), "100"), synthetic("synth-300k", s.around(1000), "100")},
		{synthetic("synth-1m", s.around(3300), "100"), synthetic("synth-2m", s.around(6600), "100")},
		{synthetic("synth-3m", s.around(10000), "100"), synthetic("synth-4.5m", s.around(15000), "100")},
		{synthetic("synth-6m", s.around(20000), "100"), synthetic("synth-8m", s.around(26000), "100")},
	}
}

// warmConfigs is the tad-warm set: five traces of 0.7 to 6 MB that
// together fit the daemon's cache. No tiny traces: on those a warm
// request is mostly loopback round trip, whose cost swung by a third from
// run to run on a shared host, where body read and hashing are what the
// warm path is about.
func warmConfigs(seed int64) []runConfig {
	s := newSeeded(seed)
	return []runConfig{
		{"pipeline64-slow", "pipeline", map[string]string{"blocks": "64", "blockbytes": "4096", "slowstage": "2", "seed": s.dataSeed()}},
		synthetic("synth-1m", s.around(3300), "100"),
		synthetic("synth-2m", s.around(6600), "100"),
		synthetic("synth-3m", s.around(10000), "100"),
		synthetic("synth-6m", s.around(20000), "100"),
	}
}

// runTAConfigs are the paper's use cases at sizes where one pdt-run plus
// pdt-ta takes some tens of milliseconds, most of it simulation.
func runTAConfigs(seed int64) []runConfig {
	s := newSeeded(seed)
	mm, st, pl := s.dataSeed(), s.dataSeed(), s.dataSeed()
	return []runConfig{
		{"matmul-1buf", "matmul", map[string]string{"n": "256", "t": "64", "buffers": "1", "seed": mm}},
		{"matmul-2buf", "matmul", map[string]string{"n": "256", "t": "64", "buffers": "2", "seed": mm}},
		{"julia-static", "julia", map[string]string{"w": "256", "h": "128", "maxiter": "64", "mode": "static"}},
		{"julia-dynamic", "julia", map[string]string{"w": "256", "h": "128", "maxiter": "64", "mode": "dynamic"}},
		{"pipeline-slow", "pipeline", map[string]string{"blocks": "32", "blockbytes": "2048", "slowstage": "2", "seed": pl}},
		{"stencil", "stencil", map[string]string{"w": "256", "h": "128", "iters": "8", "seed": st}},
		synthetic("synth-high-rate", s.around(2000), "100"),
	}
}

// generate runs one config traced and untraced through the simulator.
func generate(ctx context.Context, c runConfig) (*traceInput, error) {
	cfg := core.DefaultTraceConfig()
	res, err := harness.RunContext(ctx, harness.Spec{Workload: c.Workload, Params: c.Params, Trace: &cfg})
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", c.Name, err)
	}
	un, err := harness.RunContext(ctx, harness.Spec{Workload: c.Workload, Params: c.Params})
	if err != nil {
		return nil, fmt.Errorf("generate %s untraced: %w", c.Name, err)
	}
	sum := sha256.Sum256(res.TraceBytes)
	return &traceInput{
		cfg: c, data: res.TraceBytes, digest: hex.EncodeToString(sum[:]),
		cycles: res.Cycles, untraced: un.Cycles, stats: res.Stats,
	}, nil
}

func generateAll(ctx context.Context, cs []runConfig) ([]*traceInput, error) {
	out := make([]*traceInput, len(cs))
	for i, c := range cs {
		t, err := generate(ctx, c)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// overheadPct is the PDT tracing overhead of a set of runs: the mean,
// over runs, of traced versus untraced simulated cycles. Simulated
// cycles are deterministic, so the figure repeats exactly for a seed.
func overheadPct(ts []*traceInput) float64 {
	var sum float64
	for _, t := range ts {
		sum += harness.Overhead(t.untraced, t.cycles)
	}
	return sum / float64(len(ts))
}

// coreCounts sums the tracer's own counters over a set of runs.
func coreCounts(ts []*traceInput) core.Stats {
	var s core.Stats
	for _, t := range ts {
		s.SPERecords += t.stats.SPERecords
		s.PPERecords += t.stats.PPERecords
		s.Flushes += t.stats.Flushes
		s.FlushCycles += t.stats.FlushCycles
		s.Dropped += t.stats.Dropped
	}
	return s
}

// fingerprint is what must repeat exactly for a seed: the trace digests,
// the tracer counters and the overhead figure.
func fingerprint(ts []*traceInput) string {
	var b strings.Builder
	for _, t := range ts {
		fmt.Fprintf(&b, "%s %s %d %d\n", t.cfg.Name, t.digest, t.cycles, t.untraced)
	}
	fmt.Fprintf(&b, "%+v %.9f", coreCounts(ts), overheadPct(ts))
	return b.String()
}
