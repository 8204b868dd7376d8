package analyzer

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"github.com/celltrace/pdt/internal/core"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// openPairsImage is a sealed four-SPE trace in which every core starts
// its program, enters a tag wait and never leaves it or ends the run: the
// validator must report one "never exited" and one "no SPE_PROGRAM_END"
// per core at end of stream.
func openPairsImage(t *testing.T) []byte {
	t.Helper()
	const spes = 4
	var buf bytes.Buffer
	w, err := traceio.NewWriter(&buf, traceio.Header{
		Version: traceio.Version, NumSPEs: spes, TimebaseDiv: 40, ClockHz: core.NominalClockHz,
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := traceio.Meta{}
	for spe := 0; spe < spes; spe++ {
		meta.Anchors = append(meta.Anchors, traceio.Anchor{SPE: spe, Timebase: uint64(10 * spe), Program: "p"})
	}
	if err := w.WriteMeta(&meta); err != nil {
		t.Fatal(err)
	}
	for spe := uint8(0); spe < spes; spe++ {
		data := enc(t,
			event.Record{ID: event.SPEProgramStart, Core: spe, Flags: event.FlagDecrTime, Time: 0, Args: []uint64{1}},
			event.Record{ID: event.SPEWaitTagEnter, Core: spe, Flags: event.FlagDecrTime, Time: 5, Args: []uint64{1}},
		)
		if err := w.WriteChunk(traceio.Chunk{Core: spe, AnchorIdx: uint16(spe), Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestValidateFindingOrderDeterministic pins the end-of-stream findings
// to ascending core, then ascending run order: the same trace validated
// repeatedly must give the same issues, and the streaming validator must
// give exactly the batch findings.
func TestValidateFindingOrderDeterministic(t *testing.T) {
	img := openPairsImage(t)
	var want []Issue
	for i := 0; i < 50; i++ {
		tr, err := LoadBytes(context.Background(), img, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		got := Validate(tr)
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("validation %d differs:\n got %v\nwant %v", i, got, want)
		}
	}
	errs := Errors(want)
	if len(errs) != 8 {
		t.Fatalf("want 4 never-exited + 4 no-end errors, got %v", want)
	}
	for i, msg := range []string{
		"core 0: SPE_WAIT_TAG_ENTER never exited",
		"core 1: SPE_WAIT_TAG_ENTER never exited",
		"core 2: SPE_WAIT_TAG_ENTER never exited",
		"core 3: SPE_WAIT_TAG_ENTER never exited",
		"run 0 has no SPE_PROGRAM_END",
		"run 1 has no SPE_PROGRAM_END",
		"run 2 has no SPE_PROGRAM_END",
		"run 3 has no SPE_PROGRAM_END",
	} {
		if errs[i].Msg != msg {
			t.Errorf("error %d = %q, want %q", i, errs[i].Msg, msg)
		}
	}

	for i := 0; i < 10; i++ {
		l := NewStreamLoader(StreamOptions{Validate: true})
		if _, err := l.Write(img); err != nil {
			t.Fatal(err)
		}
		res, err := l.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Trace.Issues, want) {
			t.Fatalf("stream findings differ from batch:\nstream %v\nbatch  %v", res.Trace.Issues, want)
		}
	}
}
