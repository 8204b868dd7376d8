package analyzer

import (
	"fmt"
	"sort"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
)

// Validate checks structural invariants of the merged stream and appends
// findings to tr.Issues, returning the new findings:
//
//   - per-core timestamps are monotonically non-decreasing,
//   - Enter/Exit events pair up properly per core (no unmatched or
//     crossed pairs),
//   - every SPE run is bracketed by SPE_PROGRAM_START / SPE_PROGRAM_END
//     (unless the trace is truncated),
//   - string references resolve,
//   - mailbox conservation: SPU outbound writes >= PPE outbound reads,
//     and likewise for the inbound direction.
//
// Findings come out in scan order, then the end-of-stream findings in
// ascending core and run order, so a given trace always yields the same
// issues.
func Validate(tr *Trace) []Issue {
	var v validator
	if s := tr.col; s != nil {
		for i, n := 0, s.Len(); i < n; i++ {
			v.step(s, i, i, tr.Strings)
		}
	}
	v.finish(tr.Truncated, tr.Meta.Groups, tr.Confidence)
	tr.Issues = append(tr.Issues, v.issues...)
	return v.issues
}

// Run flags the validator keeps per SPE run.
const (
	runStarted = 1 << iota
	runEnded
)

// validator is the one implementation of the structural checks: batch
// Validate drives step over the whole store, the StreamLoader drives it
// over each merged segment, and both call finish at end of stream. The
// per-event state lives in fixed per-core arrays indexed by the Core
// column, and finish emits its findings in ascending core, then ascending
// run order, so the same trace always yields the same issues.
type validator struct {
	seen     [256]bool
	lastTime [256]uint64
	open     [256][]event.ID // stack of open Enter events per core
	// runs holds the runStarted/runEnded flags; it is touched only by
	// SPE_PROGRAM_START/END events.
	runs map[int32]uint8

	spuOutWrites, ppeOutReads, ppeInWrites, spuInReads int

	issues []Issue // findings in report order
}

func (v *validator) report(sev, format string, args ...interface{}) {
	v.issues = append(v.issues, Issue{sev, fmt.Sprintf(format, args...)})
}

// step checks row i of s. seq is the row's position in the merged
// stream (the batch row index; the fold count when streaming) and
// strings is the interned string table seen so far.
func (v *validator) step(s *colstore.Store, i, seq int, strings map[uint64]string) {
	id, core, g := s.ID[i], s.Core[i], s.Global[i]
	info, ok := event.Lookup(id)
	if !ok {
		v.report("error", "unknown event id %d at seq %d", id, seq)
		return
	}
	if v.seen[core] && g < v.lastTime[core] {
		v.report("error", "core %d time went backwards at seq %d (%d < %d)", core, seq, g, v.lastTime[core])
	}
	v.seen[core] = true
	v.lastTime[core] = g

	switch info.Kind {
	case event.KindEnter:
		v.open[core] = append(v.open[core], id)
	case event.KindExit:
		stack := v.open[core]
		if len(stack) == 0 {
			v.report("error", "core %d: %s without matching enter at seq %d", core, info.Name, seq)
			break
		}
		if top := stack[len(stack)-1]; top != info.Pair {
			v.report("error", "core %d: %s exits %s (crossed pair) at seq %d",
				core, info.Name, top, seq)
		}
		v.open[core] = stack[:len(stack)-1]
	}

	switch id {
	case event.SPEProgramStart:
		run := s.Run[i]
		if v.flagRun(run, runStarted)&runStarted != 0 {
			v.report("error", "run %d has duplicate SPE_PROGRAM_START", run)
		}
		if ref := s.Args[s.ArgOff[i]]; strings[ref] == "" {
			v.report("warn", "run %d program name ref %d unresolved", run, ref)
		}
	case event.SPEProgramEnd:
		v.flagRun(s.Run[i], runEnded)
	case event.SPEWriteOutMboxExit:
		v.spuOutWrites++
	case event.PPEReadOutMboxExit:
		v.ppeOutReads++
	case event.PPEWriteInMboxExit:
		v.ppeInWrites++
	case event.SPEReadInMboxExit:
		v.spuInReads++
	}
}

// flagRun sets flag on run and returns the run's previous flags.
func (v *validator) flagRun(run int32, flag uint8) uint8 {
	if v.runs == nil {
		v.runs = map[int32]uint8{}
	}
	prev := v.runs[run]
	v.runs[run] = prev | flag
	return prev
}

// finish runs the end-of-stream checks: pairs still open, runs that
// never ended, and mailbox conservation.
func (v *validator) finish(truncated bool, groupList string, conf Confidence) {
	sev := "error"
	if truncated {
		sev = "warn"
	}
	for core := range v.open {
		for _, id := range v.open[core] {
			v.report(sev, "core %d: %s never exited", core, id)
		}
	}
	if !truncated {
		runs := make([]int32, 0, len(v.runs))
		for run, flags := range v.runs {
			if flags&(runStarted|runEnded) == runStarted {
				runs = append(runs, run)
			}
		}
		sort.Slice(runs, func(a, b int) bool { return runs[a] < runs[b] })
		for _, run := range runs {
			v.report("error", "run %d has no SPE_PROGRAM_END", run)
		}
	}
	// Conservation checks are only meaningful when both sides' event
	// groups were recorded and neither side lost records (a crash or
	// salvage can destroy one side of a handshake that did happen).
	groups := groupMaskFromMeta(groupList)
	if groups&event.GroupMailbox != 0 && groups&event.GroupHost != 0 &&
		!truncated && !conf.Degraded() {
		if v.ppeOutReads > v.spuOutWrites {
			v.report("error", "mailbox conservation violated: PPE read %d outbound values but SPUs wrote %d",
				v.ppeOutReads, v.spuOutWrites)
		}
		if v.spuInReads > v.ppeInWrites {
			v.report("error", "mailbox conservation violated: SPUs read %d inbound values but PPE wrote %d",
				v.spuInReads, v.ppeInWrites)
		}
	}
}

// groupMaskFromMeta parses the "a|b|c" group list recorded in trace
// metadata back into a mask; unknown names are ignored.
func groupMaskFromMeta(s string) event.Group {
	var mask event.Group
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '|' {
			if g, ok := event.ParseGroup(s[start:i]); ok {
				mask |= g
			}
			start = i + 1
		}
	}
	return mask
}

// Errors filters issues down to severity "error".
func Errors(issues []Issue) []Issue {
	var out []Issue
	for _, i := range issues {
		if i.Severity == "error" {
			out = append(out, i)
		}
	}
	return out
}
