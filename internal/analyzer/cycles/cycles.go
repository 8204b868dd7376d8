// Package cycles detects the repeating event patterns of iterative
// workloads — pipeline block loops, taskfarm rounds, stencil sweeps,
// streamed chunks — and segments each SPE program run into cycles with
// startup / steady-state / drain phase boundaries.
//
// Detection is per run and purely structural: the run's event-ID
// sequence (scanned from the columnar store's ID/Run columns) is
// segmented at every occurrence of a candidate anchor event — once with
// the anchor initiating each cycle and once with it terminating each
// cycle, since an event at the end of the loop body would otherwise
// leave a dangling truncated segment — and the candidate whose
// segmentation looks most like a cycle wins. "Looks like a cycle" is
// scored as the product of four terms:
//
//   - signature regularity: the mean Jaccard similarity between each
//     cycle's distinct-event-ID set and the majority set (IDs present
//     in at least half the cycles). Anchors that fire twice per true
//     iteration produce alternating signatures and score ~0.5.
//   - variety: the majority set's share of the run's distinct IDs. A
//     spin-poll anchor (SPE_ATOMIC_ENTER while waiting for a pipeline
//     producer) segments the wait into perfectly regular {enter, exit}
//     micro-cycles, but its majority set is 2 IDs out of the run's 5+.
//   - duration regularity: 1/(1+CV) of the per-cycle wall times.
//     Half-period anchors split an iteration into a stall part and a
//     compute part with very different durations.
//   - coverage: the fraction of the run's events inside the kept
//     cycles. A burst of identical setup events (e.g. the initial tile
//     loads of a stencil) segments perfectly but covers almost nothing.
//
// Boundary cycles whose signature deviates from the majority set are
// trimmed into the startup/drain phases before scoring, so anchors that
// also fire during load or writeback (DMA tag waits, typically) still
// converge on the configured iteration count.
//
// Overhead-group events (trace flushes) are excluded from anchors and
// signatures: they land wherever the trace buffer happens to fill, so
// two runs of the same workload would otherwise detect different
// patterns. Lifecycle events are likewise excluded (they occur once per
// run by construction).
//
// A signature is an ID-set bitmask: bit i is set when event ID i occurs
// in the cycle. The event model defines fewer than 64 IDs
// (event.MaxID, checked at compile time below), so one uint64 holds any
// signature; set union and intersection are OR and AND, set sizes are
// popcounts, and scoring a candidate allocates nothing.
package cycles

import (
	"cmp"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
)

// Options tunes detection.
type Options struct {
	// MinCycles is the minimum number of anchor occurrences for a
	// candidate segmentation (default 2). Trimming never drops the kept
	// count below it.
	MinCycles int
	// MinScore is the acceptance threshold for the best candidate's
	// score (default 0.4); below it the run reports no cycles.
	MinScore float64
}

func (o Options) withDefaults() Options {
	if o.MinCycles <= 0 {
		o.MinCycles = 2
	}
	if o.MinScore <= 0 {
		o.MinScore = 0.4
	}
	return o
}

// trimThreshold is the Jaccard similarity (vs the majority set) at or
// below which a boundary cycle is folded into the startup or drain
// phase: a taskfarm worker's poison-round or a stencil writeback shares
// about half its signature with a real iteration, a real iteration
// shares clearly more.
const trimThreshold = 0.5

// Stats summarizes one per-cycle metric across the cycles of a run.
type Stats struct {
	Min    uint64
	Max    uint64
	Avg    float64
	Stddev float64 // population stddev; exactly 0 when all values equal
}

// Cycle is one detected iteration of a run.
type Cycle struct {
	Index    int    // 0-based among the kept cycles
	StartSeq int    // first store row of the cycle
	EndSeq   int    // last store row of the cycle (inclusive)
	Start    uint64 // global ticks of the first event
	End      uint64 // global ticks of the last event
	Events   int    // rows in [StartSeq, EndSeq]
	Wall     uint64 // End - Start
	Busy     uint64 // compute-state ticks inside the cycle
	Stall    uint64 // dma+mbox+signal+sync stall ticks inside the cycle
	DMAWait  uint64 // tag-group (DMA) wait ticks inside the cycle
	Sig      uint64 // FNV-1a hash of the cycle's distinct event-ID set
}

// Phases are the run's detected phase boundaries. Startup covers run
// start to the first kept cycle (plus any trimmed leading cycles),
// drain covers everything after the last kept cycle.
type Phases struct {
	StartupTicks uint64
	SteadyTicks  uint64
	DrainTicks   uint64
	SteadyStart  uint64 // global ticks: first kept cycle's start
	SteadyEnd    uint64 // global ticks: last kept cycle's end
}

// Run is the detection result for one SPE program run.
type Run struct {
	Core     uint8
	Run      int
	Detected bool
	Anchor   event.ID // anchor event of the winning segmentation
	Score    float64  // winning candidate's score
	Raw      int      // anchor occurrences before boundary trimming
	Events   int      // events in the run
	Start    uint64   // global ticks of the run's first event
	End      uint64   // global ticks of the run's last event
	Cycles   []Cycle
	Wall     Stats
	Busy     Stats
	Stall    Stats
	DMAWait  Stats
	Phases   Phases
}

// Report is the whole-trace cycle detection result.
type Report struct {
	Workload    string
	Runs        []Run
	TotalCycles int
}

// Detected returns how many runs detected a cycle structure.
func (r *Report) Detected() int {
	n := 0
	for i := range r.Runs {
		if r.Runs[i].Detected {
			n++
		}
	}
	return n
}

// Detect analyzes every SPE program run of the trace. Runs are
// independent, so past the adaptive threshold they are detected
// concurrently; the output is identical to DetectSerial.
func Detect(tr *analyzer.Trace, opt Options) *Report {
	return detect(tr, opt, false)
}

// DetectSerial is the sequential reference for Detect.
func DetectSerial(tr *analyzer.Trace, opt Options) *Report {
	return detect(tr, opt, true)
}

func detect(tr *analyzer.Trace, opt Options, serial bool) *Report {
	opt = opt.withDefaults()
	n := numRuns(tr)
	rep := &Report{Workload: tr.Meta.Workload}
	if n == 0 {
		return rep
	}
	runs := make([]Run, n)
	if serial || n < 2 || runtime.GOMAXPROCS(0) < 2 || tr.NumEvents() < analyzer.ParallelThreshold() {
		for r := 0; r < n; r++ {
			runs[r] = detectRun(tr, r, opt)
		}
	} else {
		analyzer.RunParallel(0, n, func(r int) {
			runs[r] = detectRun(tr, r, opt)
		})
	}
	for i := range runs {
		if runs[i].Events == 0 {
			continue // no rows for this run index
		}
		rep.Runs = append(rep.Runs, runs[i])
		rep.TotalCycles += len(runs[i].Cycles)
	}
	slices.SortStableFunc(rep.Runs, func(a, b Run) int {
		if a.Core != b.Core {
			return cmp.Compare(a.Core, b.Core)
		}
		return cmp.Compare(a.Run, b.Run)
	})
	return rep
}

// numRuns returns how many SPE run indexes the trace holds: the anchor
// count when metadata is present, otherwise (hand-assembled traces) one
// past the largest Run column value, clamped to a sane bound.
func numRuns(tr *analyzer.Trace) int {
	if n := len(tr.Meta.Anchors); n > 0 {
		return n
	}
	s := tr.Columns()
	if s == nil {
		return 0
	}
	max := -1
	for _, r := range s.Run {
		if int(r) > max {
			max = int(r)
		}
	}
	if max+1 > 1<<16 {
		return 1 << 16
	}
	return max + 1
}

// eligible reports whether an event ID may anchor a cycle or count in a
// cycle signature.
func eligible(id event.ID) bool {
	info, ok := event.Lookup(id)
	return ok && info.Group != event.GroupOverhead && info.Group != event.GroupLifecycle
}

// Signature masks hold one bit per event ID; the array length below is
// negative, and the package fails to compile, if the event model ever
// outgrows them.
const idBits = 64

var _ [idBits - event.MaxID]struct{}

// eligibleBits is the signature bit of every eligible ID.
var eligibleBits = func() (m uint64) {
	for id := event.ID(0); id < event.MaxID; id++ {
		if eligible(id) {
			m |= 1 << id
		}
	}
	return m
}()

// idBit is id's signature bit, or 0 when id is not eligible.
func idBit(id event.ID) uint64 {
	if id >= idBits {
		return 0
	}
	return eligibleBits & (1 << id)
}

// detectRun runs anchor selection and segmentation on one run.
func detectRun(tr *analyzer.Trace, run int, opt Options) Run {
	seqs := tr.RunSeqs(run)
	s := tr.Columns()
	if len(seqs) == 0 && s != nil {
		// Hand-assembled traces without anchor metadata: scan the column.
		for i, r := range s.Run {
			if int(r) == run {
				seqs = append(seqs, int32(i))
			}
		}
	}
	if len(seqs) == 0 {
		return Run{Run: run}
	}
	out := Run{
		Core:   s.Core[seqs[0]],
		Run:    run,
		Events: len(seqs),
		Start:  s.Global[seqs[0]],
		End:    s.Global[seqs[len(seqs)-1]],
	}

	sc := newScratch(seqs, s)
	// Occurrence positions (indexes into seqs) per eligible ID, carved
	// out of one flat array.
	var all uint64
	var count [idBits]int
	for _, b := range sc.bits {
		if b != 0 {
			all |= b
			count[bits.TrailingZeros64(b)]++
		}
	}
	sc.distinct = bits.OnesCount64(all)
	maxK := slices.Max(count[:]) // the most cycles any candidate cuts
	sc.sigs = make([]uint64, 0, maxK)
	sc.jacs = make([]float64, 0, maxK)
	sc.walls = make([]float64, 0, maxK)
	var occ [idBits][]int32
	flat := make([]int32, 0, len(seqs))
	for m := all; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		occ[id] = flat[len(flat) : len(flat) : len(flat)+count[id]]
		flat = flat[:len(flat)+count[id]]
	}
	for j, b := range sc.bits {
		if b != 0 {
			id := bits.TrailingZeros64(b)
			occ[id] = append(occ[id], int32(j))
		}
	}

	best := candidate{score: -1}
	bestSigs := make([]uint64, 0, maxK)
	for m := all; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		p := occ[id]
		if len(p) < opt.MinCycles {
			continue
		}
		for _, role := range [2]int{roleInitiator, roleTerminator} {
			c := sc.evaluate(event.ID(id), p, role, opt)
			if c.better(&best) {
				// c.sigs is scratch the next candidate overwrites.
				bestSigs = append(bestSigs[:0], c.sigs...)
				best = c
				best.sigs = bestSigs
			}
		}
	}
	if best.score < opt.MinScore || best.kept < 1 {
		return out
	}
	out.Detected = true
	out.Anchor = best.id
	out.Score = best.score
	out.Raw = best.raw
	out.Cycles = buildCycles(tr, run, seqs, best)
	out.Wall = statsOf(out.Cycles, func(c *Cycle) uint64 { return c.Wall })
	out.Busy = statsOf(out.Cycles, func(c *Cycle) uint64 { return c.Busy })
	out.Stall = statsOf(out.Cycles, func(c *Cycle) uint64 { return c.Stall })
	out.DMAWait = statsOf(out.Cycles, func(c *Cycle) uint64 { return c.DMAWait })

	first, last := &out.Cycles[0], &out.Cycles[len(out.Cycles)-1]
	out.Phases = Phases{
		StartupTicks: first.Start - out.Start,
		SteadyTicks:  last.End - first.Start,
		DrainTicks:   out.End - last.End,
		SteadyStart:  first.Start,
		SteadyEnd:    last.End,
	}
	return out
}

// candidate is one scored anchor segmentation.
type candidate struct {
	id       event.ID
	role     int // roleInitiator or roleTerminator
	score    float64
	raw      int      // anchor occurrences
	front    int      // cycles trimmed into startup
	kept     int      // cycles kept
	firstRow int32    // seqs index of the first kept cycle's first row
	pos      []int32  // anchor positions (indexes into seqs)
	sigs     []uint64 // signature mask per cycle, trimmed ones included
}

// better orders candidates: higher score, then more cycles (finer
// period), then initiator over terminator, then earlier start, then
// lower ID — all deterministic.
func (c *candidate) better(o *candidate) bool {
	if c.score != o.score {
		return c.score > o.score
	}
	if c.kept != o.kept {
		return c.kept > o.kept
	}
	if c.role != o.role {
		return c.role < o.role
	}
	if c.firstRow != o.firstRow {
		return c.firstRow < o.firstRow
	}
	return c.id < o.id
}

// scratch holds the per-run buffers candidate evaluation reuses across
// anchors: the row columns it reads and the per-cycle signature, Jaccard
// and wall-time lists.
type scratch struct {
	bits     []uint64 // idBit of each seqs entry's ID
	global   []uint64 // Global column value per seqs entry
	distinct int      // distinct eligible IDs in the run
	sigs     []uint64
	jacs     []float64
	walls    []float64
}

func newScratch(seqs []int32, s *colstore.Store) *scratch {
	sc := &scratch{
		bits:   make([]uint64, len(seqs)),
		global: make([]uint64, len(seqs)),
	}
	for j, seq := range seqs {
		sc.bits[j] = idBit(s.ID[seq])
		sc.global[j] = s.Global[seq]
	}
	return sc
}

// Anchor roles: an anchor either initiates its cycle (cycle i spans
// [P_i, P_{i+1})) or terminates it (cycle i spans (P_{i-1}, P_i]).
// Both roles are scored for every anchor: an event early in the loop
// body (a pipeline head's Get) segments cleanly as an initiator, an
// event at the end of the body (a tail stage's mailbox write) leaves a
// dangling truncated segment as an initiator but is exact as a
// terminator.
const (
	roleInitiator = iota
	roleTerminator
)

// segmentBounds returns cycle i's row range (indexes into the run's
// seqs, inclusive) for an anchor position list under the given role.
func segmentBounds(role int, pos []int32, i int, n int32) (lo, hi int32) {
	if role == roleInitiator {
		lo = pos[i]
		hi = n - 1
		if i < len(pos)-1 {
			hi = pos[i+1] - 1
		}
		return lo, hi
	}
	lo = 0
	if i > 0 {
		lo = pos[i-1] + 1
	}
	return lo, pos[i]
}

// evaluate scores one anchor candidate in one role: segment at every
// occurrence, trim deviant boundary cycles, and combine signature
// regularity, variety, duration regularity, and coverage.
func (sc *scratch) evaluate(id event.ID, pos []int32, role int, opt Options) candidate {
	k := len(pos)
	n := int32(len(sc.bits))
	var counts [idBits]int
	sc.sigs = sc.sigs[:0]
	for i := 0; i < k; i++ {
		lo, hi := segmentBounds(role, pos, i, n)
		var sig uint64
		for _, b := range sc.bits[lo : hi+1] {
			sig |= b
		}
		sc.sigs = append(sc.sigs, sig)
		for m := sig; m != 0; m &= m - 1 {
			counts[bits.TrailingZeros64(m)]++
		}
	}
	maj := majority(&counts, k)

	sc.jacs = sc.jacs[:0]
	for _, sig := range sc.sigs {
		sc.jacs = append(sc.jacs, jaccard(sig, maj))
	}
	jacs := sc.jacs

	// Trim deviant boundary cycles into startup/drain. Trimming may go
	// below MinCycles (a taskfarm worker that claimed one task plus the
	// poison round genuinely has one cycle) but never to zero.
	front, back := 0, 0
	for front+back < k-1 && jacs[front] <= trimThreshold {
		front++
	}
	for front+back < k-1 && jacs[k-1-back] <= trimThreshold {
		back++
	}
	kept := k - front - back

	sum := 0.0
	for i := front; i < k-back; i++ {
		sum += jacs[i]
	}
	regularity := sum / float64(kept)

	// Duration regularity. Boundary cycles legitimately run long or
	// short (a pipeline's first block waits for the pipe to fill), so
	// with enough cycles the CV is taken over the middle ones only.
	sc.walls = sc.walls[:0]
	for i := front; i < k-back; i++ {
		lo, hi := segmentBounds(role, pos, i, n)
		sc.walls = append(sc.walls, float64(sc.global[hi]-sc.global[lo]))
	}
	walls := sc.walls
	if len(walls) >= 4 {
		walls = walls[1 : len(walls)-1]
	}
	mean := 0.0
	for _, w := range walls {
		mean += w
	}
	mean /= float64(len(walls))
	durFactor := 1.0
	if mean > 0 {
		varsum := 0.0
		for _, w := range walls {
			d := w - mean
			varsum += d * d
		}
		cv := math.Sqrt(varsum/float64(len(walls))) / mean
		durFactor = 1 / (1 + cv)
	}

	// Coverage: fraction of the run's events inside the kept cycles.
	loRow, _ := segmentBounds(role, pos, front, n)
	_, hiRow := segmentBounds(role, pos, front+kept-1, n)
	coverage := float64(hiRow-loRow+1) / float64(n)

	// Variety: the majority set's share of the run's distinct IDs.
	variety := 1.0
	if sc.distinct > 0 {
		variety = float64(bits.OnesCount64(maj)) / float64(sc.distinct)
	}

	return candidate{
		id:       id,
		role:     role,
		score:    regularity * variety * durFactor * coverage,
		raw:      k,
		front:    front,
		kept:     kept,
		firstRow: loRow,
		pos:      pos,
		sigs:     sc.sigs,
	}
}

// majority returns the majority set: IDs present in at least half of
// the k cycles (>= not >: a stream chunk's prefetch is absent from the
// final chunks, landing in exactly half the cycles of a 4-chunk
// partition) — but always in at least two, so a 2-occurrence
// candidate's majority is the signatures' intersection rather than their
// union. counts holds, per ID, the number of cycles containing it.
func majority(counts *[idBits]int, k int) uint64 {
	var maj uint64
	for id, c := range counts {
		if c >= 2 && c*2 >= k {
			maj |= 1 << id
		}
	}
	return maj
}

// jaccard computes |a∩b| / |a∪b| over two signature masks; two empty
// sets are identical (similarity 1).
func jaccard(a, b uint64) float64 {
	union := bits.OnesCount64(a | b)
	if union == 0 {
		return 1
	}
	return float64(bits.OnesCount64(a&b)) / float64(union)
}

// sigHash is FNV-1a over the signature's IDs in ascending order, two
// little-endian bytes each.
func sigHash(sig uint64) uint64 {
	h := uint64(14695981039346656037)
	for ; sig != 0; sig &= sig - 1 {
		id := uint64(bits.TrailingZeros64(sig))
		h ^= id & 0xff
		h *= 1099511628211
		h ^= id >> 8
		h *= 1099511628211
	}
	return h
}

// buildCycles materializes the winning candidate's kept cycles with
// interval-derived busy/stall/DMA-wait time.
func buildCycles(tr *analyzer.Trace, run int, seqs []int32, best candidate) []Cycle {
	s := tr.Columns()
	n := int32(len(seqs))
	out := make([]Cycle, best.kept)
	for i := 0; i < best.kept; i++ {
		ci := best.front + i
		lo, hi := segmentBounds(best.role, best.pos, ci, n)
		start, end := s.Global[seqs[lo]], s.Global[seqs[hi]]
		out[i] = Cycle{
			Index:    i,
			StartSeq: int(seqs[lo]),
			EndSeq:   int(seqs[hi]),
			Start:    start,
			End:      end,
			Events:   int(hi - lo + 1),
			Wall:     end - start,
			Sig:      sigHash(best.sigs[ci]),
		}
	}

	// Clip the run's state intervals onto the cycles. Both lists are
	// time-ordered, so a single sweep suffices; an interval spanning a
	// cycle boundary contributes its overlap to each side.
	ivs := analyzer.RunIntervals(tr, run)
	p := 0
	for i := range out {
		c := &out[i]
		for p < len(ivs) && ivs[p].End <= c.Start {
			p++
		}
		for q := p; q < len(ivs) && ivs[q].Start < c.End; q++ {
			lo, hi := ivs[q].Start, ivs[q].End
			if lo < c.Start {
				lo = c.Start
			}
			if hi > c.End {
				hi = c.End
			}
			if hi <= lo {
				continue
			}
			d := hi - lo
			switch ivs[q].State {
			case analyzer.StateCompute:
				c.Busy += d
			case analyzer.StateStallDMA:
				c.Stall += d
				c.DMAWait += d
			case analyzer.StateStallMbox, analyzer.StateStallSignal, analyzer.StateStallSync:
				c.Stall += d
			}
		}
	}
	return out
}

// statsOf summarizes one metric across cycles. Stddev is exactly zero
// when every value is equal (byte-identical cycles must not report
// float noise).
func statsOf(cs []Cycle, get func(*Cycle) uint64) Stats {
	if len(cs) == 0 {
		return Stats{}
	}
	st := Stats{Min: get(&cs[0]), Max: get(&cs[0])}
	sum := uint64(0)
	for i := range cs {
		v := get(&cs[i])
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		sum += v
	}
	st.Avg = float64(sum) / float64(len(cs))
	if st.Min == st.Max {
		return st
	}
	varsum := 0.0
	for i := range cs {
		d := float64(get(&cs[i])) - st.Avg
		varsum += d * d
	}
	st.Stddev = math.Sqrt(varsum / float64(len(cs)))
	return st
}
