package analyzer_test

import (
	"bytes"
	"testing"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/harness"
)

// TestDoctorDeterministicOnDamagedImage doctors one truncated, bit-flipped
// trace image many times: the confidence sums damage over several cores,
// and the report must not depend on map iteration order.
func TestDoctorDeterministicOnDamagedImage(t *testing.T) {
	cfg := core.DefaultTraceConfig()
	res, err := harness.Run(harness.Spec{Workload: "fft", Trace: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(res.TraceBytes) * 2 / 3
	img := append([]byte(nil), res.TraceBytes[:cut]...)
	for k := 0; k < 3; k++ {
		img[(k*7919+cut)%len(img)] ^= 0x5a
	}
	var first []byte
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := analyzer.DoctorData(img).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.Bytes()
			continue
		}
		if got := buf.Bytes(); !bytes.Equal(got, first) {
			g, w := bytes.Split(got, []byte("\n")), bytes.Split(first, []byte("\n"))
			for j := 0; j < len(g) && j < len(w); j++ {
				if !bytes.Equal(g[j], w[j]) {
					t.Fatalf("doctor run %d differs from run 0 at line %d: %s vs %s", i, j+1, g[j], w[j])
				}
			}
			t.Fatalf("doctor run %d: %d lines, run 0: %d", i, len(g), len(w))
		}
	}
}
