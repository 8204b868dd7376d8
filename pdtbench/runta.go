package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
)

// runTA is the run-ta workload: one operation is pdt-run (traced) for
// one paper use case followed by pdt-ta summary on the trace it wrote.
type runTA struct {
	bin, work string
	seed      int64

	traces []*traceInput
	report map[*traceInput]string // SHA-256 of the expected pdt-ta summary output
}

func newRunTA(bin, work string, seed int64) *runTA {
	return &runTA{bin: bin, work: work, seed: seed}
}

var finishedRE = regexp.MustCompile(`finished in (\d+) cycles .*result verified`)

// setup generates every use case in process, renders the summary report
// pdt-ta must print, and runs each use case once untraced through
// pdt-run for the overhead figure.
func (r *runTA) setup(ctx context.Context) error {
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return err
	}
	var err error
	if r.traces, err = generateAll(ctx, runTAConfigs(r.seed)); err != nil {
		return err
	}
	r.report = map[*traceInput]string{}
	for _, t := range r.traces {
		tr, err := analyzer.LoadContext(ctx, bytes.NewReader(t.data), analyzer.Limits{})
		if err != nil {
			return fmt.Errorf("load %s: %w", t.cfg.Name, err)
		}
		analyzer.Validate(tr)
		var buf bytes.Buffer
		analyzer.Report(tr, analyzer.Summarize(tr), &buf)
		r.report[t] = sha(buf.Bytes())

		out, err := r.exec(ctx, "pdt-run", append(t.cfg.args(), "-untraced")...)
		if err != nil {
			return err
		}
		cyc, err := verified(out)
		if err != nil {
			return fmt.Errorf("pdt-run -untraced %s: %w", t.cfg.Name, err)
		}
		if cyc != t.untraced {
			return fmt.Errorf("pdt-run -untraced %s: %d cycles, in-process run took %d", t.cfg.Name, cyc, t.untraced)
		}
	}
	return nil
}

// verified extracts the simulated cycle count from pdt-run's output and
// insists that the workload verified its result.
func verified(out []byte) (uint64, error) {
	m := finishedRE.FindSubmatch(out)
	if m == nil {
		return 0, fmt.Errorf("no \"result verified\" in output: %.200s", out)
	}
	return strconv.ParseUint(string(m[1]), 10, 64)
}

// exec runs one CLI and returns its standard output.
func (r *runTA) exec(ctx context.Context, name string, args ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(r.bin, name), args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w: %.300s", name, err, errb.Bytes())
	}
	return out.Bytes(), nil
}

// do runs use case i mod n: pdt-run, then pdt-ta summary, and checks the
// verification line, the cycle count, the trace bytes and the report.
func (r *runTA) do(ctx context.Context, i int) sample {
	t := r.traces[i%len(r.traces)]
	path := filepath.Join(r.work, "op.pdt")
	var s sample
	start := time.Now()
	s.err = func() error {
		out, err := r.exec(ctx, "pdt-run", append(t.cfg.args(), "-o", path)...)
		if err != nil {
			return err
		}
		rep, err := r.exec(ctx, "pdt-ta", "summary", path)
		if err != nil {
			return err
		}
		s.dur = time.Since(start)
		cyc, err := verified(out)
		if err != nil {
			return fmt.Errorf("pdt-run %s: %w", t.cfg.Name, err)
		}
		if cyc != t.cycles {
			return fmt.Errorf("pdt-run %s: %d cycles, in-process run took %d", t.cfg.Name, cyc, t.cycles)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if sha(data) != t.digest {
			return fmt.Errorf("pdt-run %s: trace differs from the in-process run", t.cfg.Name)
		}
		if sha(rep) != r.report[t] {
			return fmt.Errorf("pdt-ta summary %s: report differs from the in-process Report", t.cfg.Name)
		}
		return nil
	}()
	if s.dur == 0 {
		s.dur = time.Since(start)
	}
	return s
}

func (r *runTA) close() {}

func (r *runTA) inputs() []*traceInput { return r.traces }

// diffPairs: the first use cases come in same-workload pairs (single vs
// double buffer, static vs dynamic).
func (r *runTA) diffPairs() []tracePair {
	return []tracePair{{r.traces[0], r.traces[1]}, {r.traces[2], r.traces[3]}}
}

func (r *runTA) begin(context.Context) error { return nil }

func (r *runTA) end(context.Context, []sample) (cacheStats, error) { return cacheStats{}, nil }

// peakRSS is the largest peak RSS of pdt-run and pdt-ta over the use
// cases, each run once more after the loop through maxRSS.
func (r *runTA) peakRSS() (float64, error) {
	path := filepath.Join(r.work, "rss.pdt")
	var m float64
	for _, t := range r.traces {
		for _, argv := range [][]string{
			append([]string{filepath.Join(r.bin, "pdt-run")}, append(t.cfg.args(), "-o", path)...),
			{filepath.Join(r.bin, "pdt-ta"), "summary", path},
		} {
			kb, err := maxRSS(argv)
			if err != nil {
				return 0, err
			}
			m = max(m, kb/1024)
		}
	}
	return m, nil
}

// overheadPct: setup and every operation check that pdt-run prints the
// in-process cycle counts, so the figure is pdt-run's own.
func (r *runTA) overheadPct() float64 { return overheadPct(r.traces) }

func (r *runTA) fingerprint() string { return fingerprint(r.traces) }

// layers prices the on-path spans of operation i: pdt-run simulates,
// traces, writes and loads the trace; pdt-ta loads it again, validates,
// summarizes and prints the report.
func (r *runTA) layers(i int, per map[*traceInput]costs, _ map[tracePair]costs) costs {
	c := per[r.traces[i%len(r.traces)]]
	return costs{
		"sim.untraced_ms":       c["sim.untraced_ms"],
		"core.trace_extra_ms":   c["core.trace_extra_ms"],
		"traceio.parse_ms":      2 * c["traceio.parse_ms"],
		"analyzer.load_ms":      2 * c["analyzer.load_ms"],
		"analyzer.validate_ms":  c["analyzer.validate_ms"],
		"analyzer.summarize_ms": c["analyzer.summarize_ms"],
		"analyzer.report_ms":    c["analyzer.report_ms"],
	}
}

// uploadProbe streams each use case's trace once through a pdt-tad
// started for the purpose, so the upload spans exist for run-ta too.
func (r *runTA) uploadProbe(ctx context.Context) ([]sample, error) {
	d, err := startDaemon(r.bin)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	return probeUploads(ctx, d, r.traces)
}

func (r *runTA) period() int { return len(r.traces) }
