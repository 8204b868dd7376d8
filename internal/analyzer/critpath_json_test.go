package analyzer_test

// Oracle suite for the critical-path JSON writer: the encoding/json
// writer it replaced is kept here as the reference, and the direct
// writer must match it byte for byte on every registered workload and
// on hand-built edge cases.

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/workloads"
)

type oraclePathSegment struct {
	Core      string `json:"core"`
	Run       int    `json:"run"`
	StartTick uint64 `json:"startTick"`
	EndTick   uint64 `json:"endTick"`
	Ticks     uint64 `json:"ticks"`
	Via       string `json:"via"`
	Cross     bool   `json:"cross"`
}

// oracleCriticalPathJSON is the reflection-based writer.
func oracleCriticalPathJSON(cp *analyzer.CriticalPath, w io.Writer) error {
	out := struct {
		TotalTicks uint64              `json:"totalTicks"`
		CoreTicks  map[string]uint64   `json:"coreTicks"`
		Segments   []oraclePathSegment `json:"segments"`
	}{TotalTicks: cp.Total, CoreTicks: map[string]uint64{}, Segments: []oraclePathSegment{}}
	for c, t := range cp.CoreTicks {
		out.CoreTicks[event.CoreName(c)] = t
	}
	for _, s := range cp.Segments {
		out.Segments = append(out.Segments, oraclePathSegment{
			Core: event.CoreName(s.Core), Run: s.Run,
			StartTick: s.Start, EndTick: s.End, Ticks: s.Dur(),
			Via: s.Via.String(), Cross: s.Cross,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

func checkCriticalPathJSON(t *testing.T, cp *analyzer.CriticalPath) {
	t.Helper()
	var want, got bytes.Buffer
	if err := oracleCriticalPathJSON(cp, &want); err != nil {
		t.Fatal(err)
	}
	if err := analyzer.WriteCriticalPathJSON(cp, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("critical-path JSON differs from encoding/json:\nwant %s\ngot  %s", want.Bytes(), got.Bytes())
	}
}

func TestCriticalPathJSONMatchesOracleAllWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			checkCriticalPathJSON(t, analyzer.ComputeCriticalPath(loadWorkloadTrace(t, name)))
		})
	}
}

func TestCriticalPathJSONMatchesOracleEdgeCases(t *testing.T) {
	cases := map[string]*analyzer.CriticalPath{
		"empty":           {},
		"empty-coremap":   {Total: 5, CoreTicks: map[uint8]uint64{}},
		"no-segments":     {Total: 9, CoreTicks: map[uint8]uint64{3: 9}},
		"empty-coreticks": {Total: 4, Segments: []analyzer.PathSegment{{Core: 1, Start: 2, End: 6, Via: event.SPEMFCGet}}},
		"ppe-threads": {
			Total: 1 << 40,
			CoreTicks: map[uint8]uint64{
				event.CorePPE: 1, event.CorePPE - 1: 2, event.CorePPE - 10: 3, event.CorePPEBase: 4,
				0: 5, 2: 6, 10: 7, 15: 8,
			},
			Segments: []analyzer.PathSegment{
				{Core: event.CorePPE - 2, Run: -1, Start: 0, End: 1 << 63, Via: event.PPEWaitExit, Cross: true},
				{Core: event.CorePPE, Run: 0, Start: 7, End: 7, Via: event.PPESPEStart, Cross: false},
				{Core: 11, Run: 3, Start: 8, End: 90, Via: event.SPEWriteOutMboxExit, Cross: true},
				{Core: 0, Run: 1, Start: 90, End: 91, Via: event.MaxID + 7},
			},
		},
	}
	for name, cp := range cases {
		t.Run(name, func(t *testing.T) { checkCriticalPathJSON(t, cp) })
	}
}
