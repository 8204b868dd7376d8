// Package pdt_test holds the benchmark harness: one testing.B benchmark
// per evaluation table/figure (see DESIGN.md section 3), each delegating
// to the shared experiment implementations in internal/harness so that
// `go test -bench` and `pdt-bench` produce the same rows. Under -short
// the experiments run with shrunken problem sizes.
//
// Custom metrics: experiments report simulated cycles and record counts
// through the printed tables; the b.N loop measures host-side cost of
// regenerating each table.
package pdt_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
	"github.com/celltrace/pdt/internal/harness"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	quick := testing.Short()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, quick); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkE1EventInventory regenerates Table 1 (PDT event inventory).
func BenchmarkE1EventInventory(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2EventCost regenerates Table 2 (per-event tracing cost).
func BenchmarkE2EventCost(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3TracingOverhead regenerates Table 3 (application slowdown
// under cumulative tracing configurations).
func BenchmarkE3TracingOverhead(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4BufferSweep regenerates Figure 4 (overhead vs trace-buffer
// size, single vs double buffered flushing).
func BenchmarkE4BufferSweep(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5LoadBalance regenerates Figure 5 (per-SPE busy time, static
// vs dynamic Julia partitioning).
func BenchmarkE5LoadBalance(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6DoubleBuffer regenerates Figure 6 (DMA stall breakdown,
// single vs double buffered matmul).
func BenchmarkE6DoubleBuffer(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7Pipeline regenerates Figure 7 (per-stage wait breakdown
// around a slow pipeline stage).
func BenchmarkE7Pipeline(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8TraceVolume regenerates Table 4 (trace size and record
// rates per workload).
func BenchmarkE8TraceVolume(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9EventRate regenerates Figure 8 (overhead vs event rate).
func BenchmarkE9EventRate(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10AnalyzerThroughput regenerates Table 5 (TA decode+analyze
// throughput).
func BenchmarkE10AnalyzerThroughput(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11BandwidthAblation regenerates Table 6 (machine-model
// ablation: STREAM bandwidth vs SPEs/memory/EIB parameters).
func BenchmarkE11BandwidthAblation(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12BarrierAblation regenerates Table 7 (barrier mechanism
// ablation: atomic vs signal-fabric barriers).
func BenchmarkE12BarrierAblation(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13Scaling regenerates Figure 9 (speedup vs SPE count).
func BenchmarkE13Scaling(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14OverheadDiff regenerates Table 8 (overhead attribution by
// trace differencing across instrumentation levels).
func BenchmarkE14OverheadDiff(b *testing.B) { benchExperiment(b, "E14") }

// ---- micro-benchmarks of the hot paths backing the tables ----

// BenchmarkRecordEncode measures trace-record serialization.
func BenchmarkRecordEncode(b *testing.B) {
	r := event.Record{ID: event.SPEMFCGet, Core: 3, Flags: event.FlagDecrTime,
		Time: 12345, Args: []uint64{0, 0x10000, 4096, 5}}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = r.AppendTo(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordDecode measures trace-record parsing.
func BenchmarkRecordDecode(b *testing.B) {
	r := event.Record{ID: event.SPEMFCGet, Core: 3, Flags: event.FlagDecrTime,
		Time: 12345, Args: []uint64{0, 0x10000, 4096, 5}}
	buf, err := r.AppendTo(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := event.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceLoad measures full trace load+merge on a mid-size trace.
func BenchmarkTraceLoad(b *testing.B) {
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": "5000", "gap": "300"},
		Trace:    &cfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(res.TraceBytes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzer.Load(bytes.NewReader(res.TraceBytes)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadLargeTrace measures the analyzer's load pipeline on a
// synthetic multi-MiB, multi-chunk trace (one chunk per SPE run plus the
// PPE chunk): the parallel decode + k-way merge + index path against the
// serial decode + global-stable-sort reference it replaced. Both
// sub-benchmarks start from the same parsed file, so the delta is purely
// the pipeline.
func BenchmarkLoadLargeTrace(b *testing.B) {
	events := 20000
	if testing.Short() {
		events = 2000
	}
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": fmt.Sprint(events), "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	f, err := traceio.Parse(res.TraceBytes)
	if err != nil {
		b.Fatal(err)
	}
	recs := res.Stats.SPERecords + res.Stats.PPERecords
	b.Logf("trace: %d bytes, %d records, %d chunks", len(res.TraceBytes), recs, len(f.Chunks))
	b.Run("parallel", func(b *testing.B) {
		b.SetBytes(int64(len(res.TraceBytes)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := analyzer.FromFile(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(res.TraceBytes)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := analyzer.FromFileSerial(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoadStream measures the incremental streaming loader on the
// same standard large trace as BenchmarkLoadLargeTrace, fed through
// StreamLoader in transport-sized writes under the default bounded
// window — the delta against LoadLargeTrace/parallel is the price of
// flat-RSS streaming ingest.
func BenchmarkLoadStream(b *testing.B) {
	events := 20000
	if testing.Short() {
		events = 2000
	}
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": fmt.Sprint(events), "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	data := res.TraceBytes
	const write = 64 << 10
	b.Logf("trace: %d bytes", len(data))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := analyzer.NewStreamLoader(analyzer.StreamOptions{})
		for off := 0; off < len(data); off += write {
			end := off + write
			if end > len(data) {
				end = len(data)
			}
			if _, err := l.Write(data[off:end]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := l.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// largeTraceBytes generates the standard multi-MiB benchmark trace.
func largeTraceBytes(b *testing.B) []byte {
	b.Helper()
	events := 20000
	if testing.Short() {
		events = 2000
	}
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "synthetic",
		Params:   map[string]string{"events": fmt.Sprint(events), "gap": "100"},
		Trace:    &cfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res.TraceBytes
}

// largeTrace loads the standard multi-MiB benchmark trace once; the
// analysis-kernel benchmarks below all chew on the same loaded trace so
// their parallel/serial deltas are purely the kernels.
func largeTrace(b *testing.B) *analyzer.Trace {
	b.Helper()
	data := largeTraceBytes(b)
	tr, err := analyzer.Load(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("trace: %d bytes, %d events", len(data), tr.NumEvents())
	return tr
}

// BenchmarkProfileLargeTrace measures the interval profile: the per-core
// sharded scan against the single-pass serial reference.
func BenchmarkProfileLargeTrace(b *testing.B) {
	tr := largeTrace(b)
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analyzer.Profile(tr)
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analyzer.ProfileSerial(tr)
		}
	})
}

// BenchmarkValidateLargeTrace measures the structural validator: one
// scan of the ID/Core/Global/Run columns with per-core array state.
func BenchmarkValidateLargeTrace(b *testing.B) {
	tr := largeTrace(b)
	if issues := analyzer.Validate(tr); len(issues) != 0 {
		b.Fatalf("benchmark trace is not clean: %v", issues)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzer.Validate(tr)
	}
}

// BenchmarkCritPathLargeTrace measures critical-path extraction: the
// sharded predecessor/dependency scans against the serial reference (the
// backward walk is shared and serial in both).
func BenchmarkCritPathLargeTrace(b *testing.B) {
	tr := largeTrace(b)
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analyzer.ComputeCriticalPath(tr)
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analyzer.ComputeCriticalPathSerial(tr)
		}
	})
}

// BenchmarkCritPathJSONLargeTrace measures rendering an already-computed
// critical path as the /v1/critpath JSON body.
func BenchmarkCritPathJSONLargeTrace(b *testing.B) {
	cp := analyzer.ComputeCriticalPath(largeTrace(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := analyzer.WriteCriticalPathJSON(cp, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoctorLargeTrace measures the recovery pipeline behind
// /v1/doctor on the clean standard trace: the salvage scan, the lenient
// load and validation.
func BenchmarkDoctorLargeTrace(b *testing.B) {
	data := largeTraceBytes(b)
	if v := analyzer.DoctorData(data).Verdict(); v != "CLEAN" {
		b.Fatalf("benchmark trace doctors as %s, want CLEAN", v)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzer.DoctorData(data)
	}
}

// BenchmarkGapsLargeTrace measures gap hunting: the per-run sharded
// scan against the serial reference, at a threshold the suggester would
// pick so the result set is realistic.
func BenchmarkGapsLargeTrace(b *testing.B) {
	tr := largeTrace(b)
	minTicks := analyzer.SuggestGapThreshold(tr)
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analyzer.FindGaps(tr, minTicks)
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			analyzer.FindGapsSerial(tr, minTicks)
		}
	})
}

// BenchmarkDiffLargeTrace measures trace differencing on the standard
// large trace (self-diff: both sides scan the full event volume, so the
// cost is representative while needing only one load).
func BenchmarkDiffLargeTrace(b *testing.B) {
	tr := largeTrace(b)
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := diff.Diff(tr, tr, diff.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := diff.DiffSerial(tr, tr, diff.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// largeCyclicTrace loads the standard iterative benchmark trace (a deep
// pipeline run, so every SPE carries a long cycle structure) for the
// cycle-detection and align-diff benchmarks.
func largeCyclicTrace(b *testing.B) *analyzer.Trace {
	b.Helper()
	blocks := 64
	if testing.Short() {
		blocks = 8
	}
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{
		Workload: "pipeline",
		Params:   map[string]string{"blocks": fmt.Sprint(blocks), "blockbytes": "4096"},
		Trace:    &cfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := analyzer.Load(bytes.NewReader(res.TraceBytes))
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("trace: %d bytes, %d events", len(res.TraceBytes), tr.NumEvents())
	return tr
}

// BenchmarkCyclesLargeTrace measures cycle/phase detection on the
// standard iterative trace: the per-run parallel fan-out against the
// serial reference.
func BenchmarkCyclesLargeTrace(b *testing.B) {
	tr := largeCyclicTrace(b)
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cycles.Detect(tr, cycles.Options{})
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cycles.DetectSerial(tr, cycles.Options{})
		}
	})
}

// BenchmarkDiffAlignLargeTrace measures a cycle-aware align-mode diff
// end to end — detection on both sides plus the LCS alignment — on the
// standard iterative trace (self-diff, same rationale as
// BenchmarkDiffLargeTrace).
func BenchmarkDiffAlignLargeTrace(b *testing.B) {
	tr := largeCyclicTrace(b)
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := diff.Diff(tr, tr, diff.Options{Mode: diff.ModeAlign}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := diff.DiffSerial(tr, tr, diff.Options{Mode: diff.ModeAlign}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulatedMachine measures simulator throughput: simulated
// cycles per host second on an untraced DMA-heavy workload.
func BenchmarkSimulatedMachine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(harness.Spec{
			Workload: "histogram",
			Params:   map[string]string{"size": "262144"},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Cycles), "simcycles/op")
	}
}
