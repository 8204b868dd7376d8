package analyzer

import (
	"context"
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// DefaultStreamWindowBytes is the working-memory budget a StreamLoader
// uses when Limits.StreamWindowBytes is zero: large enough that typical
// traces fold in a handful of segments, small enough that a 100 MB
// upload never holds more than a fraction of itself resident.
const DefaultStreamWindowBytes = 32 << 20

// StreamOptions configures a StreamLoader.
type StreamOptions struct {
	// Limits carries the admission-control caps (enforced cumulatively
	// as bytes arrive) and the StreamWindowBytes memory budget.
	Limits Limits
	// GapMinTicks enables incremental gap detection at the given
	// threshold. Zero disables it: the batch auto-threshold
	// (SuggestGapThreshold) needs every inter-event distance and is
	// deliberately not replicated on the streaming path.
	GapMinTicks uint64
	// Validate enables the incremental structural validator — the
	// same per-event step and end-of-stream checks as batch Validate.
	// On clean traces both find nothing; on damaged multi-window
	// streams the per-event findings match in substance but sequence
	// numbers and ordering may differ from the batch scan.
	Validate bool
	// Ctx, when non-nil, cancels in-flight decode and merge work; Write
	// and Finish return its error once it is done.
	Ctx context.Context
}

// StreamResult is a snapshot or final result of a streaming load: the
// trace shell (header, metadata, interned strings, issues, confidence —
// no event columns) plus the incrementally folded kernel outputs.
type StreamResult struct {
	Trace   *Trace
	Summary *Summary
	Profile []PairProfile
	Gaps    []Gap
	Tags    []TagStats
	PPE     PPEStats
	// EffectiveConcurrency is the time-averaged number of computing
	// SPEs, matching EffectiveConcurrency on the batch-loaded trace.
	EffectiveConcurrency float64
	// Complete reports that the trace footer arrived and its checksum
	// verified; false on snapshots of a still-growing stream and on
	// truncated inputs.
	Complete bool
	// Bytes and Events count the input consumed so far.
	Bytes  int64
	Events int64
}

// Parse stages of the incremental trace parser.
const (
	stageHeader = iota
	stageMetaLen
	stageMeta
	stageChunk
	stageChunkData
	stageFooter
	stageDone
)

// streamChunk is the chunk currently being decoded.
type streamChunk struct {
	core      uint8
	anchorIdx uint16
	remaining int // data bytes not yet consumed
	dropped   bool
	run       int32 // resolved run (-1 for PPE chunks)
	anchorTB  uint64
	// recs/globals accumulate the records decoded since the last window
	// cut; a chunk larger than the window contributes several pieces.
	recs     []event.Record
	globals  []uint64
	argWords int
	sorted   bool
	count    int // records decoded across the whole chunk (MaxRecords cap)
	// Rollback marks: batch Parse drops a final chunk whose data was cut
	// off, so if the stream ends inside this chunk every side effect
	// after these high-water marks is undone (see Finish).
	strMark    int
	issueMark  int
	anchorMark int
}

// StreamLoader consumes a PDT trace incrementally — from a growing
// file, an io.Reader, or an HTTP chunked upload — and folds it into the
// incremental analysis kernels under a bounded memory window. It is an
// io.Writer: feed it bytes in any slicing, then call Finish. The
// byte-level parsing replicates traceio.ParseContext exactly (same
// errors, same truncation tolerance, same footer CRC check), each
// window is merged through the batch k-way heap merge, and every kernel
// fold is order-insensitive beyond the per-core/per-run order the
// window cuts preserve — so the final results are identical to loading
// the whole trace and running the batch kernels.
//
// Write and Finish must be called from one goroutine; Snapshot may be
// called concurrently from others (the live-tail path).
type StreamLoader struct {
	mu     sync.Mutex
	opts   StreamOptions
	ctx    context.Context
	window int64

	// Incremental parser state. buf holds only unconsumed prefix bytes
	// (never chunk data on the fast path); tail holds a record split
	// across Write or window boundaries (at most 255 bytes).
	stage   int
	buf     []byte
	tail    []byte
	pos     int64  // absolute stream offset of the next unbuffered byte
	crc     uint32 // running CRC32 over all consumed bytes (footer check)
	header  traceio.Header
	meta    traceio.Meta
	metaLen int
	chdr    int // chunk header length for this version
	cur     streamChunk

	// Pending decoded-but-unmerged chunk pieces for the current window.
	pending  []chunkStream
	pendRecs int
	pendArgs int
	pendStrs []stringDef

	decoded int64 // cumulative record count against budget
	budget  int64

	acc *streamAccumulators

	truncated bool
	complete  bool
	issues    []Issue // decode-time issues, batch (chunk) order
	strings   map[uint64]string
	err       error
	finished  bool
}

// NewStreamLoader returns a loader ready to consume a trace stream.
func NewStreamLoader(opts StreamOptions) *StreamLoader {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	window := opts.Limits.StreamWindowBytes
	if window <= 0 {
		window = DefaultStreamWindowBytes
	}
	l := &StreamLoader{
		opts:    opts,
		ctx:     ctx,
		window:  window,
		budget:  recordBudget(opts.Limits),
		strings: map[uint64]string{},
	}
	l.acc = newStreamAccumulators(opts)
	l.acc.meta = &l.meta
	return l
}

// fail latches a terminal error: every later Write and Finish returns it.
func (l *StreamLoader) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// streamLimitErr mirrors traceio's limitErr wording for the caps the
// streaming path enforces itself.
func streamLimitErr(what string, declared, max int64) error {
	return fmt.Errorf("%w: %s %d exceeds limit %d", ErrLimitExceeded, what, declared, max)
}

// Write consumes the next bytes of the trace stream. p is always fully
// consumed unless a terminal error (corrupt framing, admission cap,
// cancelled context) latches, in which case the same error returns from
// every subsequent call.
func (l *StreamLoader) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(p)
	if l.err != nil {
		return 0, l.err
	}
	if l.finished {
		return 0, l.fail(errors.New("analyzer: stream write after Finish"))
	}
	if err := l.ctx.Err(); err != nil {
		return 0, l.fail(err)
	}
	if max := l.opts.Limits.MaxFileBytes; max > 0 && l.total()+int64(n) > max {
		return 0, l.fail(streamLimitErr("file size", l.total()+int64(n), max))
	}
	if l.stage == stageDone {
		// Batch Parse stops at the footer and ignores trailing bytes;
		// they still counted against MaxFileBytes above.
		l.pos += int64(n)
		return n, nil
	}
	// Chunk data with nothing buffered decodes straight out of p — the
	// zero-copy fast path every full-speed upload takes.
	if l.stage == stageChunkData && len(l.buf) == 0 && l.cur.remaining > 0 {
		k := l.cur.remaining
		if k > len(p) {
			k = len(p)
		}
		if err := l.consumeChunkData(p[:k]); err != nil {
			return 0, l.fail(err)
		}
		l.crc = crc32.Update(l.crc, crc32.IEEETable, p[:k])
		l.pos += int64(k)
		p = p[k:]
	}
	if len(p) > 0 {
		l.buf = append(l.buf, p...)
	}
	if err := l.advance(); err != nil {
		return 0, l.fail(err)
	}
	return n, nil
}

// total returns the stream bytes received so far (consumed + buffered).
func (l *StreamLoader) total() int64 { return l.pos + int64(len(l.buf)) }

// consume drops n consumed bytes from the front of buf, folding them
// into the running footer CRC.
func (l *StreamLoader) consume(n int) {
	l.crc = crc32.Update(l.crc, crc32.IEEETable, l.buf[:n])
	l.pos += int64(n)
	l.buf = l.buf[n:]
	if len(l.buf) == 0 {
		l.buf = nil
	}
}

// advance runs the parser state machine over whatever is buffered.
func (l *StreamLoader) advance() error {
	for {
		switch l.stage {
		case stageHeader:
			if len(l.buf) < 23 {
				return nil
			}
			if string(l.buf[:4]) != traceio.Magic {
				return traceio.ErrBadMagic
			}
			l.header.Version = binary.LittleEndian.Uint16(l.buf[4:6])
			if l.header.Version == 0 || l.header.Version > traceio.Version {
				return fmt.Errorf("%w: unsupported version %d", traceio.ErrCorrupt, l.header.Version)
			}
			l.header.NumSPEs = l.buf[6]
			l.header.TimebaseDiv = binary.LittleEndian.Uint64(l.buf[7:15])
			l.header.ClockHz = binary.LittleEndian.Uint64(l.buf[15:23])
			l.chdr = 8
			if l.header.Version >= 2 {
				l.chdr = 12
			}
			l.consume(23)
			l.acc.header = l.header
			l.stage = stageMetaLen
		case stageMetaLen:
			if len(l.buf) < 4 {
				return nil
			}
			l.metaLen = int(binary.LittleEndian.Uint32(l.buf[:4]))
			if max := l.opts.Limits.MaxMetaBytes; max > 0 && l.metaLen > max {
				return streamLimitErr("metadata length", int64(l.metaLen), int64(max))
			}
			l.consume(4)
			l.stage = stageMeta
		case stageMeta:
			if len(l.buf) < l.metaLen {
				return nil
			}
			if err := xml.Unmarshal(l.buf[:l.metaLen], &l.meta); err != nil {
				return fmt.Errorf("%w: metadata: %v", traceio.ErrCorrupt, err)
			}
			l.consume(l.metaLen)
			l.stage = stageChunk
		case stageChunk:
			if len(l.buf) == 0 {
				return nil
			}
			if l.buf[0] == traceio.FooterMagic[0] {
				l.stage = stageFooter
				continue
			}
			if l.buf[0] != traceio.ChunkMagic {
				return fmt.Errorf("%w: bad chunk magic %#x at offset %d", traceio.ErrCorrupt, l.buf[0], l.pos)
			}
			if len(l.buf) < l.chdr {
				return nil
			}
			clen := int(binary.LittleEndian.Uint32(l.buf[4:8]))
			if max := l.opts.Limits.MaxChunkBytes; max > 0 && clen > max {
				return streamLimitErr(fmt.Sprintf("chunk at offset %d declares", l.pos), int64(clen), int64(max))
			}
			l.cur = streamChunk{
				core:       l.buf[1],
				anchorIdx:  binary.LittleEndian.Uint16(l.buf[2:4]),
				remaining:  clen,
				sorted:     true,
				strMark:    len(l.pendStrs),
				issueMark:  len(l.issues),
				anchorMark: len(l.meta.Anchors),
			}
			l.consume(l.chdr)
			if err := l.openChunk(); err != nil {
				return err
			}
			l.stage = stageChunkData
		case stageChunkData:
			if l.cur.remaining > 0 {
				if len(l.buf) == 0 {
					return nil
				}
				n := l.cur.remaining
				if n > len(l.buf) {
					n = len(l.buf)
				}
				if err := l.consumeChunkData(l.buf[:n]); err != nil {
					return err
				}
				l.consume(n)
				continue
			}
			l.closeChunk()
			l.stage = stageChunk
		case stageFooter:
			if len(l.buf) < 8 {
				return nil
			}
			if string(l.buf[:4]) != traceio.FooterMagic {
				// Batch Parse treats a bad footer as truncation, not
				// corruption; parsing stops here for good.
				l.truncated = true
				l.stage = stageDone
				continue
			}
			want := binary.LittleEndian.Uint32(l.buf[4:8])
			if l.crc != want {
				return fmt.Errorf("%w: got %#x want %#x", traceio.ErrCRC, l.crc, want)
			}
			l.complete = true
			l.pos += int64(len(l.buf))
			l.buf = nil
			l.stage = stageDone
		case stageDone:
			l.pos += int64(len(l.buf))
			l.buf = nil
			return nil
		}
	}
}

// openChunk resolves the chunk's run/anchor placement, replicating the
// batch decodeChunkEvents checks. Unresolvable anchors fail the load:
// the streaming path is strict (salvage stays on the batch path), and a
// well-formed live stream always delivers the anchor — as a LiveAnchor
// record in an earlier PPE chunk — before any chunk referencing it.
func (l *StreamLoader) openChunk() error {
	c := &l.cur
	c.run = -1
	if c.core == event.CorePPE {
		return nil
	}
	if int(c.anchorIdx) >= len(l.meta.Anchors) {
		return fmt.Errorf("analyzer: chunk for SPE %d references anchor %d of %d",
			c.core, c.anchorIdx, len(l.meta.Anchors))
	}
	a := l.meta.Anchors[c.anchorIdx]
	if a.SPE != int(c.core) {
		l.issues = append(l.issues,
			Issue{"error", fmt.Sprintf("anchor %d is for SPE %d but chunk is core %d", c.anchorIdx, a.SPE, c.core)})
	}
	c.run = int32(c.anchorIdx)
	c.anchorTB = a.Timebase
	return nil
}

// consumeChunkData decodes records from the next data bytes of the
// current chunk. data is capped at cur.remaining by the caller, which
// also folds it into the footer CRC.
func (l *StreamLoader) consumeChunkData(data []byte) error {
	c := &l.cur
	c.remaining -= len(data)
	if c.dropped {
		return nil
	}
	// Complete a record split across Write boundaries first.
	for len(l.tail) > 0 && len(data) > 0 {
		need := int(l.tail[0]) - len(l.tail)
		if need <= 0 {
			break
		}
		if need > len(data) {
			need = len(data)
		}
		l.tail = append(l.tail, data[:need]...)
		data = data[need:]
	}
	if len(l.tail) > 0 {
		if len(l.tail) >= int(l.tail[0]) {
			rec := l.tail
			l.tail = nil
			if err := l.decodeRecords(rec); err != nil {
				return err
			}
			if len(l.tail) > 0 {
				// Still short: only possible when the chunk itself ended.
				return l.endOfChunkTail()
			}
		} else if c.remaining == 0 {
			return l.endOfChunkTail()
		} else {
			return nil
		}
	}
	if err := l.decodeRecords(data); err != nil {
		return err
	}
	if len(l.tail) > 0 && c.remaining == 0 {
		return l.endOfChunkTail()
	}
	return nil
}

// endOfChunkTail handles a chunk ending inside a record: the partial
// record is dropped with the batch decoder's mid-record warning, and
// the records decoded before it are kept.
func (l *StreamLoader) endOfChunkTail() error {
	l.tail = nil
	l.issues = append(l.issues,
		Issue{"warn", fmt.Sprintf("chunk for core %d truncated mid-record", l.cur.core)})
	l.cur.dropped = true
	return nil
}

// decodeRecords decodes every complete record in data into the current
// chunk piece, stashing a trailing partial record in l.tail.
func (l *StreamLoader) decodeRecords(data []byte) error {
	c := &l.cur
	// Size the record extension and a fresh argument arena from the
	// framing, exactly like the batch decoder: the arena never regrows
	// while this batch's records alias it.
	est, words := event.ScanChunk(data)
	if est > 0 && cap(c.recs)-len(c.recs) < est {
		recs := make([]event.Record, len(c.recs), len(c.recs)+est)
		copy(recs, c.recs)
		c.recs = recs
		globals := make([]uint64, len(c.globals), len(c.globals)+est)
		copy(globals, c.globals)
		c.globals = globals
	}
	var arena []uint64
	if words > 0 {
		arena = make([]uint64, 0, words)
	}
	for len(data) > 0 {
		if err := checkStreamCtx(l.ctx, c.count); err != nil {
			return err
		}
		if data[0] == 0 {
			// DMA-alignment padding between buffer flushes.
			n := 1
			for n < len(data) && data[n] == 0 {
				n++
			}
			data = data[n:]
			continue
		}
		if len(c.recs) < cap(c.recs) {
			c.recs = c.recs[:len(c.recs)+1]
		} else {
			c.recs = append(c.recs, event.Record{})
		}
		if len(c.globals) < cap(c.globals) {
			c.globals = c.globals[:len(c.globals)+1]
		} else {
			c.globals = append(c.globals, 0)
		}
		n, nextArena, derr := event.DecodeNext(&c.recs[len(c.recs)-1], data, arena)
		arena = nextArena
		if derr != nil {
			c.recs = c.recs[:len(c.recs)-1]
			c.globals = c.globals[:len(c.globals)-1]
			if errors.Is(derr, event.ErrShortRecord) {
				// Partial record: wait for the rest of it.
				l.tail = append(make([]byte, 0, 256), data...)
				return nil
			}
			return fmt.Errorf("traceio: core %d: %w", c.core, derr)
		}
		c.count++
		if max := l.opts.Limits.MaxRecords; max > 0 && c.count > max {
			return streamLimitErr(fmt.Sprintf("core %d record count", c.core), int64(c.count), int64(max))
		}
		if l.budget > 0 {
			if l.decoded++; l.decoded > l.budget {
				return fmt.Errorf("%w: decoded records %d exceed budget %d (MaxRecords/MaxDecodeBytes)",
					ErrLimitExceeded, l.decoded, l.budget)
			}
		}
		if err := l.placeRecord(); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// placeRecord resolves the global time of the record just decoded and
// applies stream-level side effects (string interning, live anchors),
// cutting a window when the pending footprint reaches the budget.
func (l *StreamLoader) placeRecord() error {
	c := &l.cur
	i := len(c.recs) - 1
	rec := &c.recs[i]
	if rec.Flags&event.FlagDecrTime != 0 {
		c.globals[i] = c.anchorTB + rec.Time
	} else {
		c.globals[i] = rec.Time
	}
	c.argWords += len(rec.Args)
	if rec.ID == event.StringDef && len(rec.Args) == 1 {
		l.pendStrs = append(l.pendStrs, stringDef{rec.Args[0], rec.Str})
	}
	if rec.ID == event.LiveAnchor && len(rec.Args) == 3 {
		// Live streams deliver clock anchors in-band (the tracer appends
		// one as each run starts) instead of in the up-front metadata.
		l.meta.Anchors = append(l.meta.Anchors, traceio.Anchor{
			SPE:      int(rec.Args[0]),
			Timebase: rec.Args[1],
			Loaded:   uint32(rec.Args[2]),
			Program:  rec.Str,
		})
	}
	if i > 0 && c.globals[i-1] > c.globals[i] {
		c.sorted = false
	}
	// Window pacing. Only completed chunks fold by default, so an
	// end-of-stream truncation can still drop the current chunk exactly
	// as batch Parse does; a chunk that alone outgrows the window is cut
	// mid-chunk anyway — bounded memory wins over drop-parity there.
	curBytes := int64(len(c.recs))*eventFootprint + int64(c.argWords)*8
	pendBytes := int64(l.pendRecs)*eventFootprint + int64(l.pendArgs)*8
	if pendBytes+curBytes >= l.window/2 {
		if curBytes >= l.window/2 {
			l.cutPiece()
		}
		if l.pendRecs > 0 {
			return l.flushWindow()
		}
	}
	return nil
}

// cutPiece moves the current chunk's decoded records into the pending
// merge window as one stream piece.
func (l *StreamLoader) cutPiece() {
	c := &l.cur
	if len(c.recs) == 0 {
		return
	}
	if !c.sorted {
		sort.Stable(&streamSorter{c.recs, c.globals})
	}
	l.pending = append(l.pending, chunkStream{recs: c.recs, globals: c.globals, run: c.run})
	l.pendRecs += len(c.recs)
	l.pendArgs += c.argWords
	c.recs = nil
	c.globals = nil
	c.argWords = 0
	c.sorted = true
}

// closeChunk finishes the current chunk; its final piece joins the
// pending window.
func (l *StreamLoader) closeChunk() {
	l.cutPiece()
	l.tail = nil
}

// flushWindow merges the pending chunk pieces into one columnar segment
// — the batch k-way heap merge, so intra-window order is exactly the
// batch order — and folds it into every accumulator. The segment is
// dropped afterwards, keeping resident memory bounded by the window.
func (l *StreamLoader) flushWindow() error {
	if len(l.pending) == 0 {
		return nil
	}
	for _, sd := range l.pendStrs {
		l.strings[sd.ref] = sd.s
	}
	l.pendStrs = l.pendStrs[:0]
	b := colstore.NewBuilder(l.pendRecs, l.pendArgs)
	if err := mergeStreams(l.ctx, b, l.pending, l.pendRecs); err != nil {
		return err
	}
	seg := b.Done()
	l.pending = l.pending[:0]
	l.pendRecs, l.pendArgs = 0, 0
	l.acc.fold(seg, l.strings)
	// Folded side effects cannot be rolled back any more: advance the
	// current chunk's drop marks past everything just flushed.
	l.cur.strMark = 0
	l.cur.anchorMark = len(l.meta.Anchors)
	return nil
}

// Bytes returns the number of stream bytes received so far.
// Events reports how many records have been decoded so far; like Bytes
// it is safe to call concurrently with Write.
func (l *StreamLoader) Events() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.decoded
}

func (l *StreamLoader) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total()
}

// Sealed reports that the stream's footer has arrived and its checksum
// verified — the writer closed the trace, so no more data is coming.
// Follow-mode readers use it to stop polling a live file.
func (l *StreamLoader) Sealed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.complete
}

// Err returns the latched terminal error, if any.
func (l *StreamLoader) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Finish flushes the final window, applies end-of-stream truncation
// semantics — a stream ending before the footer is Truncated, exactly
// like batch Parse — and returns the folded result. Idempotent.
func (l *StreamLoader) Finish() (*StreamResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, l.err
	}
	if !l.finished {
		l.finished = true
		switch l.stage {
		case stageHeader:
			// Batch: too short to hold a header at all.
			return nil, l.fail(traceio.ErrBadMagic)
		case stageChunkData:
			// Ended inside a chunk: batch Parse drops a chunk whose
			// data was cut off, so undo this chunk's un-flushed side
			// effects (records, string defs, issues, live anchors). A
			// window-sized chunk may have folded earlier pieces already;
			// those stay — bounded memory made them irreversible.
			c := &l.cur
			l.tail = nil
			l.issues = l.issues[:c.issueMark]
			l.pendStrs = l.pendStrs[:c.strMark]
			l.meta.Anchors = l.meta.Anchors[:c.anchorMark]
			l.decoded -= int64(len(c.recs))
			c.recs, c.globals = nil, nil
			c.argWords = 0
			l.truncated = true
		case stageMetaLen, stageMeta, stageChunk, stageFooter:
			l.truncated = true
		}
		if err := l.flushWindow(); err != nil {
			return nil, l.fail(err)
		}
		l.acc.finishStream(l.truncated)
	}
	return l.snapshotLocked(true), nil
}

// Snapshot returns the running analysis over every window folded so
// far — the live-tail view of a stream still being written. Records
// decoded but still inside the current window are not yet included;
// the final Finish result always is.
func (l *StreamLoader) Snapshot() *StreamResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked(false)
}

func (l *StreamLoader) snapshotLocked(final bool) *StreamResult {
	return l.acc.snapshot(snapshotInput{
		final:     final,
		truncated: l.truncated,
		complete:  l.complete && final,
		issues:    l.issues,
		strings:   l.strings,
		bytes:     l.total(),
	})
}

// checkStreamCtx polls ctx once per ctx-stride records, mirroring the
// batch decoder's cadence.
func checkStreamCtx(ctx context.Context, n int) error {
	if n%4096 == 0 {
		return ctx.Err()
	}
	return nil
}

// StreamFile streams an on-disk trace through a StreamLoader in bounded
// reads and returns the final result — the flat-RSS alternative to
// LoadFile for traces larger than memory.
func StreamFile(ctx context.Context, path string, opts StreamOptions) (*StreamResult, error) {
	if opts.Ctx == nil {
		opts.Ctx = ctx
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	l := NewStreamLoader(opts)
	buf := make([]byte, 1<<20)
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			if _, werr := l.Write(buf[:n]); werr != nil {
				return nil, werr
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, rerr
		}
	}
	return l.Finish()
}
