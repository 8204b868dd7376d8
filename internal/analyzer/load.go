// Package analyzer implements the TA (trace analyzer) side of the paper:
// it loads PDT traces, reconstructs a globally ordered event stream from
// the per-core buffers (converting SPU-decrementer timestamps to PPE
// timebase time through the recorded anchor pairs), validates structural
// invariants, derives per-core state intervals (compute vs. the various
// stall classes), and produces the statistics, timelines and exports the
// paper's use cases rely on.
package analyzer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// Limits re-exports the trace-format admission-control knobs: the
// analyzer enforces the record-count and decode-memory budgets that the
// byte-level parser cannot, and passes the rest down to traceio. The
// zero value disables all admission control.
type Limits = traceio.Limits

// ErrLimitExceeded is the typed admission-control failure; errors.Is
// matches it across the analyzer and traceio layers.
var ErrLimitExceeded = traceio.ErrLimitExceeded

// DefaultServiceLimits mirrors traceio.DefaultServiceLimits for callers
// that only import the analyzer.
func DefaultServiceLimits() Limits { return traceio.DefaultServiceLimits() }

// eventFootprint is the budgeted in-core cost of one decoded event in
// bytes under the columnar store: ~32 bytes of fixed-width columns, a
// couple of argument words, and the 8 bytes of per-core plus per-run
// index entries. MaxDecodeBytes divided by this gives the record budget
// the decode stage enforces; Trace.Footprint reports the exact measured
// size after the fact.
const eventFootprint = 64

// errDecodePanic marks a chunk whose decode panicked; the per-worker
// recovery converts it into a per-chunk Issue so one poisoned chunk
// cannot take down the whole load (or, in a service, the process).
var errDecodePanic = errors.New("analyzer: panic while decoding chunk")

// decodePanicHook, when non-nil, runs at the top of every chunk decode.
// Tests use it to inject panics and prove the recovery path; it is never
// set in production code.
var decodePanicHook func(chunk int)

// Event is one trace record with its reconstructed global time (in
// timebase ticks) and a stable sequence number. It is the materialized,
// record-shaped view of one row of the columnar store: kernels scan the
// columns directly, while callers that want a self-contained value use
// Trace.Event or the CoreEvents/RunEvents views.
type Event struct {
	event.Record
	// Global is the event time in PPE timebase ticks.
	Global uint64
	// Run is the SPE program run index (anchor index) the event belongs
	// to, or -1 for PPE events.
	Run int
	// Seq is the stable index of the event in the merged stream.
	Seq int
}

// Issue is one validation finding.
type Issue struct {
	Severity string // "warn" or "error"
	Msg      string
}

func (i Issue) String() string { return i.Severity + ": " + i.Msg }

// Trace is a fully loaded and merged PDT trace. The event stream lives
// in a struct-of-arrays columnar store (see colstore): kernels scan the
// columns they need, everything else materializes Event values through
// the accessors.
type Trace struct {
	Header    traceio.Header
	Meta      traceio.Meta
	Strings   map[uint64]string
	Truncated bool
	Issues    []Issue // populated by Load (decoding) and Validate
	// Confidence estimates what fraction of the records the tracer
	// produced actually made it into the store, overall and per core —
	// 1.0 on a clean complete trace, lower when records were dropped at
	// trace time or lost to corruption (salvaged loads).
	Confidence Confidence

	// col is the columnar event store, in merged order (ascending
	// Global, stable by file position), so a row index is the event's
	// sequence number. Nil only on zero-value Traces; hand-assembled
	// traces populate it through SetEvents.
	col *colstore.Store

	// coreSeq and runSeq map cores and runs to their rows of col in
	// stream order. Both index families are carved out of one shared
	// int32 arena each, built once at load, so per-core kernel shards
	// walk a contiguous index block instead of re-scanning the stream.
	coreSeq map[uint8][]int32
	runSeq  [][]int32
}

// LoadFile loads a trace from disk through the zero-copy path: the file
// is memory-mapped when the platform allows (plain read otherwise) and
// records decode straight out of the mapped region into the column
// arenas, which own copies of everything by the time the mapping is
// released.
func LoadFile(path string) (*Trace, error) {
	return LoadFileContext(context.Background(), path, Limits{})
}

// LoadFileContext loads a trace from disk under cancellation and
// admission control. See LoadFile for the mmap semantics.
func LoadFileContext(ctx context.Context, path string, lim Limits) (*Trace, error) {
	m, err := traceio.MapFile(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return LoadBytes(ctx, m.Data(), lim)
}

// LoadBytes parses, decodes and merges a trace image that is already in
// memory, under cancellation and admission control, without copying it:
// chunk data is sliced out of data and decoded straight into the column
// arenas. The returned Trace keeps no reference to data, so the caller
// may reuse or release the buffer (or unmap it) as soon as LoadBytes
// returns.
func LoadBytes(ctx context.Context, data []byte, lim Limits) (*Trace, error) {
	f, err := traceio.ParseContext(ctx, data, lim)
	if err != nil {
		return nil, err
	}
	return FromFileContext(ctx, f, lim)
}

// Load parses, decodes and merges a trace.
func Load(r io.Reader) (*Trace, error) {
	return LoadContext(context.Background(), r, Limits{})
}

// LoadContext parses, decodes and merges a trace under cancellation and
// admission control: oversized inputs, metadata blobs, declared chunk
// lengths, record counts, and decode-memory budgets are all rejected with
// ErrLimitExceeded, and a cancelled or expired ctx stops the pipeline
// promptly with ctx.Err().
func LoadContext(ctx context.Context, r io.Reader, lim Limits) (*Trace, error) {
	f, err := traceio.ReadContext(ctx, r, lim)
	if err != nil {
		return nil, err
	}
	return FromFileContext(ctx, f, lim)
}

// FromFile merges an already-parsed trace file through the parallel
// decode→merge→index pipeline: chunks are decoded concurrently by a
// bounded worker pool, the per-chunk streams (each time-ordered at the
// source) are combined with a k-way heap merge directly into the columnar
// store, and the per-core and per-run index arenas are built once. The
// resulting event order is exactly the one FromFileSerial's global stable
// sort produces: ascending Global time, ties broken by chunk position in
// the file, then record position within the chunk.
func FromFile(f *traceio.File) (*Trace, error) {
	return fromFile(context.Background(), f, runtime.GOMAXPROCS(0), false, Limits{})
}

// FromFileContext is FromFile under cancellation and admission control.
// Cancellation propagates to every decode worker and the merge loop; when
// it fires, all pipeline goroutines are joined before the call returns,
// so a cancelled load never leaks goroutines or leaves channels open.
func FromFileContext(ctx context.Context, f *traceio.File, lim Limits) (*Trace, error) {
	return fromFile(ctx, f, runtime.GOMAXPROCS(0), false, lim)
}

// newTrace builds the Trace shell shared by both load paths: header,
// metadata, and the file-level issues (truncation, drop accounting).
func newTrace(f *traceio.File) *Trace {
	tr := &Trace{
		Header:    f.Header,
		Meta:      f.Meta,
		Strings:   map[uint64]string{},
		Truncated: f.Truncated,
	}
	if f.Truncated {
		tr.Issues = append(tr.Issues, Issue{"warn", "trace is truncated (crashed or incomplete run)"})
	}
	for _, d := range f.Meta.Drops {
		tr.Issues = append(tr.Issues,
			Issue{"warn", fmt.Sprintf("SPE %d dropped %d records (main trace region full)", d.SPE, d.Count)})
	}
	return tr
}

// resolveLiveAnchors rebuilds the anchor table of a live-streamed
// trace. A live stream's up-front metadata carries no anchors (it is
// written before any SPE program exists); the tracer instead emits a
// LiveAnchor record as each run starts. When an SPE chunk references an
// anchor index beyond the metadata table, scan the PPE chunks in file
// order and append the anchors their LiveAnchor records describe —
// emission order is anchor-index order, so the rebuilt table lines up
// with the chunk references. Sealed files resolve every index from
// metadata alone and skip the scan entirely.
func resolveLiveAnchors(f *traceio.File) {
	need := false
	for _, c := range f.Chunks {
		if c.Core != event.CorePPE && c.AnchorIdx != traceio.NoAnchor &&
			int(c.AnchorIdx) >= len(f.Meta.Anchors) {
			need = true
			break
		}
	}
	if !need {
		return
	}
	for _, c := range f.Chunks {
		if c.Core != event.CorePPE {
			continue
		}
		recs, _, err := traceio.DecodeChunk(c)
		if err != nil {
			continue
		}
		for _, rec := range recs {
			if rec.ID == event.LiveAnchor && len(rec.Args) == 3 {
				f.Meta.Anchors = append(f.Meta.Anchors, traceio.Anchor{
					SPE:      int(rec.Args[0]),
					Timebase: rec.Args[1],
					Loaded:   uint32(rec.Args[2]),
					Program:  rec.Str,
				})
			}
		}
	}
}

// stringDef is one interned string observed while decoding a chunk.
type stringDef struct {
	ref uint64
	s   string
}

// chunkStream is one decoded chunk ready for the k-way merge: the
// records in stream order, the parallel Global-timeline column (anchor
// times already resolved), and the run every record belongs to (-1 for
// PPE chunks). Keeping records and timeline as two flat slices instead
// of wrapping each record in an Event halves the bytes the merge moves
// and lets the heap compare raw uint64s.
type chunkStream struct {
	recs    []event.Record
	globals []uint64
	run     int32
}

// chunkResult is everything one worker produced for one chunk.
type chunkResult struct {
	stream   chunkStream
	argWords int // total argument words across records
	strings  []stringDef
	issues   []Issue
	err      error
}

// recordBudget folds the record-count and decode-memory limits into one
// cumulative cap on decoded records (0 = unlimited).
func recordBudget(lim Limits) int64 {
	budget := int64(0)
	if lim.MaxRecords > 0 {
		budget = int64(lim.MaxRecords)
	}
	if lim.MaxDecodeBytes > 0 {
		if b := lim.MaxDecodeBytes / eventFootprint; budget == 0 || b < budget {
			budget = b
		}
	}
	return budget
}

// admitChunks is the pre-decode admission check: every chunk's actual
// data size against MaxChunkBytes (hand-assembled Files bypass Parse, so
// the parser's check alone is not enough), and the cheap whole-file
// record upper bound against the combined record budget.
func admitChunks(f *traceio.File, lim Limits) error {
	if lim.Unlimited() {
		return nil
	}
	for _, c := range f.Chunks {
		if lim.MaxChunkBytes > 0 && len(c.Data) > lim.MaxChunkBytes {
			return fmt.Errorf("%w: chunk for core %d holds %d bytes, limit %d",
				ErrLimitExceeded, c.Core, len(c.Data), lim.MaxChunkBytes)
		}
	}
	return nil
}

// fromFile runs the pipeline with a bounded number of decode workers. In
// lenient mode (salvaged files), chunk decode errors and unresolvable
// anchors become Issues on the trace instead of failing the load, and
// whatever records did decode are kept. Cancellation and admission
// failures are never lenient: both stop the load with a typed error after
// every worker has been joined.
func fromFile(ctx context.Context, f *traceio.File, workers int, lenient bool, lim Limits) (*Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := admitChunks(f, lim); err != nil {
		return nil, err
	}
	resolveLiveAnchors(f)
	tr := newTrace(f)
	n := len(f.Chunks)
	if n == 0 {
		tr.finish(colstore.NewBuilder(0, 0))
		return tr, nil
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}

	// decoded counts records cumulatively across workers so the combined
	// record/memory budget trips mid-decode, not after the fact.
	var decoded atomic.Int64
	budget := recordBudget(lim)

	results := make([]chunkResult, n)
	if workers == 1 {
		for i := range f.Chunks {
			if ctx.Err() != nil {
				break
			}
			results[i] = decodeChunkEvents(ctx, f, i, lenient, lim, &decoded, budget)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					if ctx.Err() != nil {
						// Drain remaining indexes without decoding so the
						// feeder never blocks and the pool winds down fast.
						continue
					}
					results[i] = decodeChunkEvents(ctx, f, i, lenient, lim, &decoded, budget)
				}
			}()
		}
	feed:
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				break feed
			}
		}
		close(idx)
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Aggregate in chunk order so issues, string interning and the error
	// returned are deterministic and identical to the serial path. Panics
	// recovered in a worker become per-chunk issues (the chunk's records
	// are lost to the unwind); admission failures abort even lenient
	// loads.
	total, argWords := 0, 0
	streams := make([]chunkStream, n)
	for i := range results {
		r := &results[i]
		if r.err != nil {
			switch {
			case errors.Is(r.err, errDecodePanic):
				tr.Issues = append(tr.Issues, Issue{"error", r.err.Error()})
				continue
			case errors.Is(r.err, ErrLimitExceeded), errors.Is(r.err, context.Canceled),
				errors.Is(r.err, context.DeadlineExceeded), !lenient:
				return nil, r.err
			default:
				// Lenient decode damage was already folded into r.issues
				// by the worker; r.err is only set on hard failures.
				return nil, r.err
			}
		}
		tr.Issues = append(tr.Issues, r.issues...)
		for _, sd := range r.strings {
			tr.Strings[sd.ref] = sd.s
		}
		streams[i] = r.stream
		total += len(r.stream.recs)
		argWords += r.argWords
	}
	b := colstore.NewBuilder(total, argWords)
	if err := mergeStreams(ctx, b, streams, total); err != nil {
		return nil, err
	}
	tr.finish(b)
	return tr, nil
}

// finish installs the built columns and derives the indexes and
// confidence shared by every load path.
func (tr *Trace) finish(b *colstore.Builder) {
	tr.col = b.Done()
	tr.buildIndexes()
	tr.Confidence = computeConfidence(tr, nil)
}

// decodeChunkEvents decodes one chunk into its event stream, resolving
// anchor times and collecting interned strings and per-chunk issues. The
// returned stream is ascending in Global: chunks are time-ordered at the
// source, and the rare unordered one (none of our writers produce them,
// but foreign traces may) is stable-sorted here, which preserves exact
// equivalence with a global stable sort.
//
// A panic anywhere in the decode is recovered and converted into a
// per-chunk errDecodePanic, so one poisoned chunk degrades into a trace
// Issue instead of crashing the worker pool. decoded accumulates the
// cross-chunk record count against budget (0 = unlimited).
func decodeChunkEvents(ctx context.Context, f *traceio.File, i int, lenient bool, lim Limits, decoded *atomic.Int64, budget int64) (res chunkResult) {
	c := f.Chunks[i]
	defer func() {
		if r := recover(); r != nil {
			res = chunkResult{err: fmt.Errorf("%w: core %d chunk %d: %v", errDecodePanic, c.Core, i, r)}
		}
	}()
	if decodePanicHook != nil {
		decodePanicHook(i)
	}
	recs, trunc, err := traceio.DecodeChunkContext(ctx, c, lim)
	if err != nil {
		if errors.Is(err, ErrLimitExceeded) || ctx.Err() != nil {
			res.err = err
			return res
		}
		if !lenient {
			res.err = err
			return res
		}
		// Lenient (salvaged) load: keep the records that did decode and
		// surface the damage as an issue.
		res.issues = append(res.issues,
			Issue{"error", fmt.Sprintf("chunk for core %d: decode stopped after %d records: %v",
				c.Core, len(recs), err)})
	}
	if budget > 0 {
		if n := decoded.Add(int64(len(recs))); n > budget {
			res = chunkResult{err: fmt.Errorf("%w: decoded records %d exceed budget %d (MaxRecords/MaxDecodeBytes)",
				ErrLimitExceeded, n, budget)}
			return res
		}
	}
	if trunc {
		res.issues = append(res.issues,
			Issue{"warn", fmt.Sprintf("chunk for core %d truncated mid-record", c.Core)})
	}
	run := -1
	var anchorTB uint64
	if c.Core != event.CorePPE {
		if int(c.AnchorIdx) >= len(f.Meta.Anchors) {
			if !lenient {
				res.err = fmt.Errorf("analyzer: chunk for SPE %d references anchor %d of %d",
					c.Core, c.AnchorIdx, len(f.Meta.Anchors))
				return res
			}
			// No anchor to place this chunk on the timeline: drop it.
			res.issues = append(res.issues,
				Issue{"error", fmt.Sprintf("chunk for SPE %d dropped: anchor %d of %d unresolvable",
					c.Core, c.AnchorIdx, len(f.Meta.Anchors))})
			return res
		}
		a := f.Meta.Anchors[c.AnchorIdx]
		if a.SPE != int(c.Core) {
			res.issues = append(res.issues,
				Issue{"error", fmt.Sprintf("anchor %d is for SPE %d but chunk is core %d", c.AnchorIdx, a.SPE, c.Core)})
		}
		run = int(c.AnchorIdx)
		anchorTB = a.Timebase
	}
	globals := make([]uint64, len(recs))
	sorted := true
	for j := range recs {
		rec := &recs[j]
		if rec.Flags&event.FlagDecrTime != 0 {
			// SPU decrementer time: elapsed ticks since the anchor.
			globals[j] = anchorTB + rec.Time
		} else {
			globals[j] = rec.Time
		}
		res.argWords += len(rec.Args)
		if rec.ID == event.StringDef && len(rec.Args) == 1 {
			res.strings = append(res.strings, stringDef{rec.Args[0], rec.Str})
		}
		if j > 0 && globals[j-1] > globals[j] {
			sorted = false
		}
	}
	if !sorted {
		sort.Stable(&streamSorter{recs, globals})
	}
	res.stream = chunkStream{recs, globals, int32(run)}
	return res
}

// streamSorter stable-sorts a decoded chunk by Global, keeping the
// record and timeline slices aligned.
type streamSorter struct {
	recs    []event.Record
	globals []uint64
}

func (s *streamSorter) Len() int           { return len(s.recs) }
func (s *streamSorter) Less(i, j int) bool { return s.globals[i] < s.globals[j] }
func (s *streamSorter) Swap(i, j int) {
	s.recs[i], s.recs[j] = s.recs[j], s.recs[i]
	s.globals[i], s.globals[j] = s.globals[j], s.globals[i]
}

// streamHead is one live input of the k-way merge: a chunk's stream and
// a cursor into it. Heads sit at fixed positions in one array; only the
// small mergeEnt keys move through the heap.
type streamHead struct {
	recs    []event.Record
	globals []uint64
	run     int32
	pos     int
}

// mergeEnt is one heap entry: the cached next key of a stream plus the
// stream's identity. 16 bytes, so heap swaps are two register moves
// instead of duffcopying whole stream heads, and the comparisons — the
// hottest reads of the merge — touch only the heap slice itself.
type mergeEnt struct {
	nextG uint64 // == head.globals[head.pos] while the stream is live
	idx   int32  // chunk file position: breaks Global ties
	hi    int32  // index into the heads array
}

// entLess orders heap entries by (Global of next event, chunk index);
// the chunk index is unique, so the order is total and the merge output
// is exactly the stable-sort order over the chunk-concatenated stream.
func entLess(a, b mergeEnt) bool {
	return a.nextG < b.nextG || (a.nextG == b.nextG && a.idx < b.idx)
}

func siftDown(h []mergeEnt, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && entLess(h[r], h[l]) {
			m = r
		}
		if !entLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// mergeCtxStride is how many merged events pass between context polls in
// the k-way merge hot loop: cheap enough to be invisible, frequent enough
// that cancellation lands well inside the 100 ms budget even on
// multi-million-event traces.
const mergeCtxStride = 1 << 14

// mergeStreams k-way merges per-chunk event streams, each ascending in
// Global, into the columnar builder: O(N log k) instead of the
// O(N log N) global sort, with no reflection in the hot loop, and the
// merged rows land directly in their final columns (the transient
// per-chunk record and timeline slices die here). The merge polls ctx
// every mergeCtxStride events and aborts with ctx.Err().
func mergeStreams(ctx context.Context, b *colstore.Builder, streams []chunkStream, total int) error {
	heads := make([]streamHead, 0, len(streams))
	h := make([]mergeEnt, 0, len(streams))
	for i := range streams {
		s := &streams[i]
		if len(s.recs) > 0 {
			h = append(h, mergeEnt{nextG: s.globals[0], idx: int32(i), hi: int32(len(heads))})
			heads = append(heads, streamHead{recs: s.recs, globals: s.globals, run: s.run})
		}
	}
	if len(h) == 0 {
		return nil
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	poll := mergeCtxStride
	for len(h) > 1 {
		// The runner-up entry (the smaller heap child of the root) bounds
		// how far the top stream may drain before the heap must be
		// re-established. Chunks are time-clustered — each SPE run owns a
		// contiguous region of the timeline — so draining a whole run per
		// heap round replaces one siftDown per event with one per run.
		e := h[0]
		hd := &heads[e.hi]
		r := 1
		if 2 < len(h) && entLess(h[2], h[1]) {
			r = 2
		}
		runner := h[r]
		g := e.nextG
		exhausted := false
		for {
			if poll--; poll <= 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				poll = mergeCtxStride
			}
			if g > runner.nextG || (g == runner.nextG && e.idx > runner.idx) {
				break
			}
			b.Append(&hd.recs[hd.pos], g, hd.run)
			hd.pos++
			if hd.pos == len(hd.recs) {
				exhausted = true
				break
			}
			g = hd.globals[hd.pos]
		}
		if exhausted {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			h[0].nextG = g
		}
		siftDown(h, 0)
	}
	// Sole surviving stream: drain its tail without heap maintenance.
	hd := &heads[h[0].hi]
	for ; hd.pos < len(hd.recs); hd.pos++ {
		b.Append(&hd.recs[hd.pos], hd.globals[hd.pos], hd.run)
	}
	return nil
}

// buildIndexes precomputes the per-core and per-run row-index arenas in
// two passes (count, then fill) so each index family is one allocation
// carved into contiguous per-core (per-run) blocks.
func (tr *Trace) buildIndexes() {
	s := tr.col
	n := s.Len()
	var coreCount [257]int // prefix offsets; entry c counts core c
	runCount := make([]int, len(tr.Meta.Anchors))
	for i := 0; i < n; i++ {
		coreCount[s.Core[i]]++
		if r := s.Run[i]; r >= 0 && int(r) < len(runCount) {
			runCount[r]++
		}
	}
	distinct := 0
	for c := 0; c < 256; c++ {
		if coreCount[c] > 0 {
			distinct++
		}
	}
	coreArena := make([]int32, n)
	var coreOff [257]int
	sum := 0
	for c := 0; c < 256; c++ {
		coreOff[c] = sum
		sum += coreCount[c]
	}
	coreOff[256] = sum

	runTotal := 0
	for _, c := range runCount {
		runTotal += c
	}
	runArena := make([]int32, runTotal)
	runOff := make([]int, len(runCount)+1)
	sum = 0
	for r, c := range runCount {
		runOff[r] = sum
		sum += c
	}
	runOff[len(runCount)] = sum

	coreCur := coreOff
	runCur := append([]int(nil), runOff...)
	for i := 0; i < n; i++ {
		c := s.Core[i]
		coreArena[coreCur[c]] = int32(i)
		coreCur[c]++
		if r := s.Run[i]; r >= 0 && int(r) < len(runCount) {
			runArena[runCur[r]] = int32(i)
			runCur[r]++
		}
	}
	tr.coreSeq = make(map[uint8][]int32, distinct)
	for c := 0; c < 256; c++ {
		if coreCount[c] > 0 {
			tr.coreSeq[uint8(c)] = coreArena[coreOff[c]:coreOff[c+1]:coreOff[c+1]]
		}
	}
	tr.runSeq = make([][]int32, len(runCount))
	for r := range runCount {
		if runCount[r] > 0 {
			tr.runSeq[r] = runArena[runOff[r]:runOff[r+1]:runOff[r+1]]
		}
	}
}

// NumEvents returns the number of events in the merged stream.
func (tr *Trace) NumEvents() int {
	if tr.col == nil {
		return 0
	}
	return tr.col.Len()
}

// Columns exposes the raw columnar store for kernels in sibling packages
// (analyzer/diff scans it directly). Nil on zero-value Traces; callers
// must not mutate it.
func (tr *Trace) Columns() *colstore.Store { return tr.col }

// Event materializes row i of the store as a self-contained value. The
// Args slice views the shared arena (nil for zero-argument events) and
// must not be mutated.
func (tr *Trace) Event(i int) Event {
	s := tr.col
	return Event{Record: s.Record(i), Global: s.Global[i], Run: int(s.Run[i]), Seq: i}
}

// Events materializes the whole merged stream. It exists for tests and
// small tools that want to range over record-shaped values; analysis
// code should scan the columns or index with Event instead of paying the
// O(n) copy.
func (tr *Trace) Events() []Event {
	if tr.col == nil {
		return nil
	}
	out := make([]Event, tr.col.Len())
	for i := range out {
		out[i] = tr.Event(i)
	}
	return out
}

// SetEvents replaces the trace's event store with the given events,
// rebuilding the columns and indexes. It is the assembly path for tests
// and tools that construct traces by hand; the events must already be in
// stream order (their Seq fields are ignored and become their indexes).
func (tr *Trace) SetEvents(evs []Event) {
	b := colstore.NewBuilder(len(evs), 0)
	for i := range evs {
		ev := &evs[i]
		b.Append(&ev.Record, ev.Global, int32(ev.Run))
	}
	tr.col = b.Done()
	tr.buildIndexes()
}

// StringRef resolves an interned string reference.
func (tr *Trace) StringRef(ref uint64) string {
	if s, ok := tr.Strings[ref]; ok {
		return s
	}
	return fmt.Sprintf("<str:%d>", ref)
}

// CoreSeqs returns the row indexes of one core's events in stream order
// (one contiguous block of the core index arena). Callers must not
// modify it.
func (tr *Trace) CoreSeqs(core uint8) []int32 { return tr.coreSeq[core] }

// RunSeqs returns the row indexes of one SPE program run in stream
// order, or nil when run is out of range (PPE events carry run -1 and
// are found by scanning the Run column). Callers must not modify it.
func (tr *Trace) RunSeqs(run int) []int32 {
	if run >= 0 && run < len(tr.runSeq) {
		return tr.runSeq[run]
	}
	return nil
}

// materialize builds Event values for the given store rows.
func (tr *Trace) materialize(seqs []int32) []Event {
	if len(seqs) == 0 {
		return nil
	}
	out := make([]Event, len(seqs))
	for j, i := range seqs {
		out[j] = tr.Event(int(i))
	}
	return out
}

// CoreEvents returns the events of one core in stream order. The slice
// is materialized from the columnar store on every call; kernels should
// scan CoreSeqs against the columns instead.
func (tr *Trace) CoreEvents(core uint8) []Event {
	if tr.col == nil {
		return nil
	}
	return tr.materialize(tr.coreSeq[core])
}

// RunEvents returns the events of one SPE program run in stream order.
// Out-of-range runs (notably -1, the PPE pseudo-run) fall back to a
// column scan. The slice is materialized on every call; kernels should
// scan RunSeqs against the columns instead.
func (tr *Trace) RunEvents(run int) []Event {
	if tr.col == nil {
		return nil
	}
	if run >= 0 && run < len(tr.runSeq) {
		return tr.materialize(tr.runSeq[run])
	}
	var out []Event
	for i, r := range tr.col.Run {
		if int(r) == run {
			out = append(out, tr.Event(i))
		}
	}
	return out
}

// Span returns the [first, last] global time covered by the trace.
func (tr *Trace) Span() (start, end uint64) {
	if tr.NumEvents() == 0 {
		return 0, 0
	}
	return tr.col.Global[0], tr.col.Global[tr.col.Len()-1]
}

// CyclesPerTick converts timebase ticks to processor cycles.
func (tr *Trace) CyclesPerTick() uint64 {
	if tr.Header.TimebaseDiv == 0 {
		return 1
	}
	return tr.Header.TimebaseDiv
}
