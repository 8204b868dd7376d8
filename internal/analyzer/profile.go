package analyzer

import (
	"fmt"
	"io"
	"slices"

	"github.com/celltrace/pdt/internal/core/event"
)

// PairProfile aggregates all occurrences of one Enter/Exit event pair
// across the trace: the TA statistics view ("where does blocked time go,
// by API call").
type PairProfile struct {
	Enter event.ID
	Count int
	// Ticks is the duration distribution in timebase ticks.
	Ticks Histogram
	// Confidence is the lowest record-survival fraction among the cores
	// that contributed intervals to this pair (1.0 on clean traces); a
	// low value means the counts and totals understate reality.
	Confidence float64
}

// kindOf and pairOf are flat arrays indexed by event ID, replacing the
// metadata map lookup in the pair-matching hot loops: unknown ids keep
// the zero Kind (a point event) and are ignored, exactly like a failed
// Lookup.
var (
	kindOf []event.Kind
	pairOf []event.ID
)

func init() {
	n := int(event.MaxID)
	kindOf = make([]event.Kind, n)
	pairOf = make([]event.ID, n)
	for id := event.ID(1); id < event.MaxID; id++ {
		if info, ok := event.Lookup(id); ok {
			kindOf[id] = info.Kind
			pairOf[id] = info.Pair
		}
	}
}

// Profile computes per-pair interval statistics over the whole trace.
// Pairs are matched per core in stream order; unmatched enters (truncated
// traces) are dropped.
//
// Matching is independent per core, so past the adaptive-parallelism
// threshold the per-core index blocks are profiled concurrently over the
// columnar store and the per-core accumulators merged (count and
// histogram sums are commutative, the confidence is a min), which
// produces exactly the result of ProfileSerial's single scan. Smaller
// traces take the serial scan, which beats pool startup at those sizes.
func Profile(tr *Trace) []PairProfile {
	cores := tr.Cores()
	if !tr.parallelWorthwhile() || len(cores) < 2 {
		return ProfileSerial(tr)
	}
	parts := make([]map[event.ID]*PairProfile, len(cores))
	runParallel(0, len(cores), func(i int) {
		parts[i] = profileCore(tr, cores[i])
	})
	acc := map[event.ID]*PairProfile{}
	for _, part := range parts {
		for id, p := range part {
			q := acc[id]
			if q == nil {
				cp := *p
				acc[id] = &cp
				continue
			}
			q.Count += p.Count
			q.Ticks.Merge(&p.Ticks)
			if p.Confidence < q.Confidence {
				q.Confidence = p.Confidence
			}
		}
	}
	return sortProfiles(acc)
}

// ProfileSerial is the single-scan reference implementation Profile's
// sharded version is tested against. It walks the ID and Global columns
// only; open enters live in per-core flat arrays indexed by event id
// (start+1, so 0 means "not open") instead of nested maps.
func ProfileSerial(tr *Trace) []PairProfile {
	acc := map[event.ID]*PairProfile{}
	if tr.col == nil {
		return sortProfiles(acc)
	}
	s := tr.col
	var open [256][]uint64 // core -> enterID -> start+1
	for i, id := range s.ID {
		if int(id) >= len(kindOf) {
			continue
		}
		switch kindOf[id] {
		case event.KindEnter:
			core := s.Core[i]
			m := open[core]
			if m == nil {
				m = make([]uint64, len(kindOf))
				open[core] = m
			}
			m[id] = s.Global[i] + 1
		case event.KindExit:
			core := s.Core[i]
			m := open[core]
			if m == nil {
				break
			}
			pair := pairOf[id]
			start := m[pair]
			if start == 0 {
				break
			}
			m[pair] = 0
			p := acc[pair]
			if p == nil {
				p = &PairProfile{Enter: pair, Confidence: 1}
				acc[pair] = p
			}
			p.Count++
			p.Ticks.Add(s.Global[i] - (start - 1))
			if c := tr.Confidence.ForCore(core); c < p.Confidence {
				p.Confidence = c
			}
		}
	}
	return sortProfiles(acc)
}

// profileCore matches Enter/Exit pairs over one core's stream-ordered
// index block of the columnar store. The core's record-survival fraction
// is constant, so the per-pair confidence is simply the min across
// contributing cores at merge time.
func profileCore(tr *Trace, core uint8) map[event.ID]*PairProfile {
	s := tr.col
	seqs := tr.coreSeq[core]
	open := make([]uint64, len(kindOf)) // enterID -> start+1; 0 = not open
	acc := map[event.ID]*PairProfile{}
	conf := tr.Confidence.ForCore(core)
	for _, seq := range seqs {
		id := s.ID[seq]
		if int(id) >= len(kindOf) {
			continue
		}
		switch kindOf[id] {
		case event.KindEnter:
			open[id] = s.Global[seq] + 1
		case event.KindExit:
			pair := pairOf[id]
			start := open[pair]
			if start == 0 {
				break
			}
			open[pair] = 0
			p := acc[pair]
			if p == nil {
				p = &PairProfile{Enter: pair, Confidence: 1}
				acc[pair] = p
			}
			p.Count++
			p.Ticks.Add(s.Global[seq] - (start - 1))
			if conf < p.Confidence {
				p.Confidence = conf
			}
		}
	}
	return acc
}

// sortProfiles flattens the accumulator into the report order: most
// expensive pair first, ties broken by enter id so the order is total.
func sortProfiles(acc map[event.ID]*PairProfile) []PairProfile {
	out := make([]PairProfile, 0, len(acc))
	for _, p := range acc {
		out = append(out, *p)
	}
	slices.SortFunc(out, func(a, b PairProfile) int {
		if a.Ticks.Sum != b.Ticks.Sum {
			if a.Ticks.Sum > b.Ticks.Sum {
				return -1
			}
			return 1
		}
		if a.Enter != b.Enter {
			if a.Enter < b.Enter {
				return -1
			}
			return 1
		}
		return 0
	})
	return out
}

// WriteProfile renders the profile as a table, most expensive pair first.
// On degraded (salvaged or lossy) traces a confidence column shows the
// record-survival fraction behind each row; clean traces keep the
// original layout.
func WriteProfile(tr *Trace, w io.Writer) {
	WriteProfilePairs(tr, Profile(tr), w)
}

// WriteProfilePairs renders an already-computed profile, letting callers
// (the cached service path, the concurrent report path) reuse a memoized
// result instead of rescanning the trace.
func WriteProfilePairs(tr *Trace, pairs []PairProfile, w io.Writer) {
	degraded := tr.Confidence.Degraded()
	fmt.Fprintf(w, "%-28s %8s %12s %12s %12s", "interval", "count", "total ticks", "mean", "max")
	if degraded {
		fmt.Fprintf(w, " %6s", "conf")
	}
	fmt.Fprintln(w)
	for _, p := range pairs {
		name := p.Enter.String()
		// Strip the _ENTER suffix for readability.
		if n := len(name); n > 6 && name[n-6:] == "_ENTER" {
			name = name[:n-6]
		}
		fmt.Fprintf(w, "%-28s %8d %12d %12.1f %12d",
			name, p.Count, p.Ticks.Sum, p.Ticks.Mean(), p.Ticks.Max)
		if degraded {
			fmt.Fprintf(w, " %5.1f%%", 100*p.Confidence)
		}
		fmt.Fprintln(w)
	}
}

// WriteIntervalsCSV exports the reconstructed state intervals:
// run,core,state,start,end,ticks.
func WriteIntervalsCSV(tr *Trace, w io.Writer) error {
	if _, err := fmt.Fprintln(w, "run,core,state,start_tick,end_tick,ticks"); err != nil {
		return err
	}
	for _, iv := range Intervals(tr) {
		_, err := fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n",
			iv.Run, iv.Core, iv.State, iv.Start, iv.End, iv.Dur())
		if err != nil {
			return err
		}
	}
	return nil
}
