// Package harness orchestrates complete runs for the CLIs, examples and
// benchmarks: build a machine, optionally attach a PDT session, prepare a
// workload, simulate, verify, and collect the trace and its analysis.
package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/cell"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/faults"
	"github.com/celltrace/pdt/internal/sim"
	"github.com/celltrace/pdt/internal/workloads"
)

// Spec describes one run.
type Spec struct {
	Workload string
	Params   map[string]string
	// NumSPEs overrides the machine SPE count when positive.
	NumSPEs int
	// MemMiB sizes simulated memory (default 64).
	MemMiB int
	// MachineMut, when non-nil, adjusts the machine configuration after
	// defaults and NumSPEs/MemMiB are applied (used by the machine-
	// parameter ablation experiments).
	MachineMut func(*cell.Config)
	// Trace, when non-nil, attaches a PDT session with this config.
	Trace *core.Config
	// TracePath, when non-empty, also writes the trace file there.
	TracePath string
	// LivePath, when non-empty, mirrors the trace onto this file while
	// the simulation runs (live-tail): header and metadata up front,
	// then a chunk per completed flush DMA. The stream is sealed with a
	// footer on clean completion and left truncated after a crash,
	// exactly the shape a dying writer leaves. Requires Trace.
	LivePath string
	// SkipVerify skips result verification (overhead sweeps that run
	// many configurations use it to save host time, never correctness
	// tests).
	SkipVerify bool
	// Faults, when non-nil and non-empty, injects the planned faults:
	// machine crash, flush-DMA stalls and failures, and post-hoc trace
	// corruption. Damaged traces are loaded through the salvage path.
	Faults *faults.Plan
}

// Result is what a run produced.
type Result struct {
	// Cycles is the simulated end time of the run.
	Cycles uint64
	// Machine is the finished machine (stats remain readable).
	Machine *cell.Machine
	// Stats holds tracing-side counters (zero value when untraced).
	Stats core.Stats
	// TraceBytes is the serialized trace (nil when untraced), after any
	// planned corruption was applied.
	TraceBytes []byte
	// Trace is the loaded trace (nil when untraced).
	Trace *analyzer.Trace
	// Crashed reports that an injected kill stopped the simulation early;
	// TraceBytes then holds a crash-consistent (footerless) trace.
	Crashed bool
	// Salvage is the recovery accounting when the trace had to be loaded
	// through the salvage path (nil for clean traces).
	Salvage *traceio.SalvageReport
	// FaultNotes describes the post-hoc corruption that was applied.
	FaultNotes []string
}

// Run executes a spec.
func Run(spec Spec) (*Result, error) {
	return RunContext(context.Background(), spec)
}

// RunContext executes a spec under cancellation: the simulation engine
// polls ctx between dispatches and the trace load honors it too, so a
// deadline bounds the whole run (simulate → write → analyze). The
// returned error preserves ctx.Err() for errors.Is, letting callers map
// a wall-clock timeout to a distinct exit status.
func RunContext(ctx context.Context, spec Spec) (*Result, error) {
	w, err := workloads.New(spec.Workload)
	if err != nil {
		return nil, err
	}
	if err := w.Configure(spec.Params); err != nil {
		return nil, err
	}
	mc := cell.DefaultConfig()
	if spec.NumSPEs > 0 {
		mc.NumSPEs = spec.NumSPEs
	}
	mc.MemSize = 64 * cell.MiB
	if spec.MemMiB > 0 {
		mc.MemSize = spec.MemMiB * cell.MiB
	}
	if spec.MachineMut != nil {
		spec.MachineMut(&mc)
	}
	m := cell.NewMachine(mc)

	plan := spec.Faults
	if kill, ok := plan.Kill(); ok {
		m.CrashAt(kill)
	}

	if spec.LivePath != "" && spec.Trace == nil {
		return nil, errors.New("harness: LivePath requires tracing (Trace config)")
	}
	var session *core.Session
	var liveFile *os.File
	if spec.Trace != nil {
		cfg := *spec.Trace
		cfg.Workload = spec.Workload
		cfg.Params = w.Params()
		session = core.NewSession(m, cfg)
		session.Attach()
		if spec.LivePath != "" {
			lf, err := os.Create(spec.LivePath)
			if err != nil {
				return nil, err
			}
			defer lf.Close()
			if err := session.AttachLive(lf); err != nil {
				return nil, err
			}
			liveFile = lf
		}
		if !plan.Empty() {
			// Stalls target only the DMA tags the tracer flushes on;
			// workload transfers are left alone.
			m.DMAStall = func(spe, tag int, now uint64) uint64 {
				if tag != cfg.FlushTagA && tag != cfg.FlushTagB {
					return 0
				}
				return plan.FlushStall(spe, now)
			}
			session.InjectFlushFailures(plan.FlushFail)
		}
	}
	if err := w.Prepare(m); err != nil {
		return nil, err
	}
	crashed := false
	if err := m.RunContext(ctx); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("harness: simulation interrupted: %w", err)
		}
		if _, killed := plan.Kill(); !errors.Is(err, sim.ErrStopped) || !killed {
			return nil, fmt.Errorf("harness: simulation: %w", err)
		}
		crashed = true
	}
	if !spec.SkipVerify && !crashed {
		if err := w.Verify(m); err != nil {
			return nil, fmt.Errorf("harness: verification: %w", err)
		}
	}
	if liveFile != nil && !crashed {
		// Seal the live stream; a crash leaves it truncated, footerless,
		// exactly as a real dying writer would.
		if err := session.CloseLive(); err != nil {
			return nil, fmt.Errorf("harness: live stream: %w", err)
		}
	}
	res := &Result{Cycles: m.Now(), Machine: m, Crashed: crashed}
	if session != nil {
		res.Stats = session.Stats()
		var buf bytes.Buffer
		var werr error
		if crashed {
			werr = session.WriteCrashTrace(&buf)
		} else {
			werr = session.WriteTrace(&buf)
		}
		if werr != nil {
			return nil, werr
		}
		res.TraceBytes, res.FaultNotes = plan.MangleTrace(buf.Bytes())
		if spec.TracePath != "" {
			if err := os.WriteFile(spec.TracePath, res.TraceBytes, 0o644); err != nil {
				return nil, err
			}
		}
		if crashed || len(res.FaultNotes) > 0 {
			// The trace is damaged by construction; load it the way
			// `pdt-ta doctor` would.
			f, rep, err := traceio.SalvageContext(ctx, res.TraceBytes)
			if err != nil {
				return nil, fmt.Errorf("harness: trace unrecoverable: %w", err)
			}
			tr, err := analyzer.FromSalvagedContext(ctx, f, rep, analyzer.Limits{})
			if err != nil {
				return nil, err
			}
			res.Trace = tr
			res.Salvage = rep
		} else {
			tr, err := analyzer.LoadBytes(ctx, res.TraceBytes, analyzer.Limits{})
			if err != nil {
				return nil, err
			}
			res.Trace = tr
		}
	}
	return res, nil
}

// Overhead returns (traced-untraced)/untraced as a percentage.
func Overhead(untraced, traced uint64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (float64(traced) - float64(untraced)) / float64(untraced)
}
