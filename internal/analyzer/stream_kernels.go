package analyzer

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/celltrace/pdt/internal/analyzer/colstore"
	"github.com/celltrace/pdt/internal/core/event"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// This file holds the incremental (Accumulate) forms of the analysis
// kernels. Each accumulator folds one merged columnar segment at a time
// and produces, at any point, exactly what the batch kernel would
// produce over the events folded so far. The equivalence argument every
// accumulator leans on: window segments preserve the batch merged order
// *within each core and each run* (chunks decode in file order, each
// chunk is time-ordered, and the in-window merge is the batch k-way
// merge), and every batch kernel is a per-core/per-run state machine
// combined with order-insensitive sums — so folding segments in stream
// order drives each state machine through the same transitions as the
// batch scan. stream_equiv_test.go checks the identity byte-for-byte
// against every workload.

// snapshotInput is the loader-side state a snapshot combines with the
// accumulated kernel state.
type snapshotInput struct {
	final     bool
	truncated bool
	complete  bool
	issues    []Issue
	strings   map[uint64]string
	bytes     int64
}

// runAcc carries the per-run state of the incremental Summarize: the
// RunIntervals state machine, the DMA and mailbox scanners, and the
// run's bounds. It mirrors, field for field, the locals of the batch
// loops in stats.go and intervals.go.
type runAcc struct {
	seen   bool
	core   uint8
	start  uint64
	end    uint64
	events int

	// RunIntervals machine.
	state     [int(numStates)]uint64
	cursor    uint64
	open      bool
	openState State
	openStart uint64

	// DMA scanner (stats.go).
	dma       DMASummary
	inWait    bool
	waitStart uint64

	// Mailbox scanner (stats.go).
	mbox      MboxSummary
	mboxStart uint64
	mboxKind  event.ID

	// Incremental gap detection: end doubles as the previous global.
	gaps []Gap
}

// pairAcc is one pair's incremental profile plus the set of cores that
// contributed intervals (confidence is resolved against the final
// per-core figures at snapshot time, exactly the min the batch scan
// takes as it goes).
type pairAcc struct {
	prof  PairProfile
	cores [4]uint64 // 256-bit contributing-core set
}

// streamAccumulators folds merged segments into every incremental
// kernel. All calls happen under the owning StreamLoader's mutex.
type streamAccumulators struct {
	opts   StreamOptions
	header traceio.Header
	// meta points at the loader's metadata so anchors appended by
	// in-band LiveAnchor records are visible without re-plumbing.
	meta *traceio.Meta

	events   int64
	minG     uint64
	maxG     uint64
	haveSpan bool

	eventCount map[event.ID]int
	got        [256]int
	tags       [32]TagStats
	runs       []runAcc

	ppe      PPEStats
	ppeEnter map[event.ID]uint64

	profOpen [256][]uint64 // core -> enterID -> start+1
	profAcc  map[event.ID]*pairAcc

	val       *validator // nil unless StreamOptions.Validate
	valIssues []Issue

	finished bool
}

func newStreamAccumulators(opts StreamOptions) *streamAccumulators {
	a := &streamAccumulators{
		opts:       opts,
		eventCount: map[event.ID]int{},
		ppeEnter:   map[event.ID]uint64{},
		profAcc:    map[event.ID]*pairAcc{},
	}
	if opts.Validate {
		a.val = &validator{}
	}
	return a
}

// run returns the accumulator of one run, growing the table on demand
// (live streams discover runs as their anchors arrive).
func (a *streamAccumulators) run(run int) *runAcc {
	for run >= len(a.runs) {
		a.runs = append(a.runs, runAcc{})
	}
	return &a.runs[run]
}

// fold consumes one merged segment. strings is the loader's interned
// string table, already updated with every StringDef up to and
// including this segment.
func (a *streamAccumulators) fold(seg *colstore.Store, strings map[uint64]string) {
	n := seg.Len()
	if n == 0 {
		return
	}
	// Segments are internally ascending in Global but not ordered
	// across windows, so the span folds as min/max of segment bounds.
	if !a.haveSpan {
		a.haveSpan = true
		a.minG, a.maxG = seg.Global[0], seg.Global[n-1]
	} else {
		if seg.Global[0] < a.minG {
			a.minG = seg.Global[0]
		}
		if seg.Global[n-1] > a.maxG {
			a.maxG = seg.Global[n-1]
		}
	}
	cpt := a.header.TimebaseDiv
	if cpt == 0 {
		cpt = 1
	}
	for i := 0; i < n; i++ {
		id := seg.ID[i]
		core := seg.Core[i]
		g := seg.Global[i]
		seq := int(a.events)
		a.events++
		a.eventCount[id]++
		a.got[core]++

		// TagBreakdown (stats.go): per-tag DMA sums.
		switch id {
		case event.SPEMFCGet, event.SPEMFCPut, event.SPEMFCGetList, event.SPEMFCPutList:
			base := seg.ArgOff[i]
			tag := int(seg.Args[base+3] % 32)
			a.tags[tag].Tag = tag
			a.tags[tag].Cmds++
			a.tags[tag].Bytes += seg.Args[base+2]
		}

		if run := seg.Run[i]; run >= 0 {
			a.foldRun(seg, i, int(run), id, core, g, cpt)
		}
		if core >= event.CorePPEBase {
			a.foldPPE(seg, i, id, g)
		}
		a.foldProfile(seg, i, id, core, g)
		if a.val != nil {
			// seq is the fold-order sequence number: it matches the
			// batch seq on clean traces (which produce no findings) and
			// is a best-effort locator on damaged multi-window streams.
			a.val.step(seg, i, seq, strings)
		}
	}
}

// foldRun advances one run's Summarize state machines by one event —
// the bodies of the per-run loops in stats.go and RunIntervals fused
// into a single per-event step.
func (a *streamAccumulators) foldRun(seg *colstore.Store, i, run int, id event.ID, core uint8, g, cpt uint64) {
	ra := a.run(run)
	if !ra.seen {
		ra.seen = true
		ra.core = core
		ra.start = g
		ra.end = g
		ra.cursor = g
	} else {
		if a.opts.GapMinTicks > 0 && g-ra.end >= a.opts.GapMinTicks {
			ra.gaps = append(ra.gaps, Gap{Run: run, Core: core, Start: ra.end, End: g})
		}
		ra.end = g
	}
	ra.events++

	// DMA and mailbox scanners (stats.go, Summarize inner loop).
	switch id {
	case event.SPEMFCGet:
		base := seg.ArgOff[i]
		ra.dma.Gets++
		ra.dma.BytesIn += seg.Args[base+2]
		ra.dma.SizeBytes.Add(seg.Args[base+2])
	case event.SPEMFCPut:
		base := seg.ArgOff[i]
		ra.dma.Puts++
		ra.dma.BytesOut += seg.Args[base+2]
		ra.dma.SizeBytes.Add(seg.Args[base+2])
	case event.SPEMFCGetList:
		base := seg.ArgOff[i]
		ra.dma.Lists++
		ra.dma.BytesIn += seg.Args[base+2]
		ra.dma.SizeBytes.Add(seg.Args[base+2])
	case event.SPEMFCPutList:
		base := seg.ArgOff[i]
		ra.dma.Lists++
		ra.dma.BytesOut += seg.Args[base+2]
		ra.dma.SizeBytes.Add(seg.Args[base+2])
	case event.SPEWaitTagEnter:
		ra.inWait = true
		ra.waitStart = g
	case event.SPEWaitTagExit:
		if ra.inWait {
			ra.dma.Waits++
			ra.dma.WaitTicks.Add(g - ra.waitStart)
			ra.inWait = false
		}
	case event.SPEReadInMboxEnter:
		ra.mboxStart, ra.mboxKind = g, id
	case event.SPEReadInMboxExit:
		if ra.mboxKind == event.SPEReadInMboxEnter {
			ra.mbox.Reads++
			ra.mbox.ReadWaitTicks.Add(g - ra.mboxStart)
			ra.mboxKind = 0
		}
	case event.SPEWriteOutMboxEnter, event.SPEWriteIntrMboxEnter:
		ra.mboxStart, ra.mboxKind = g, id
	case event.SPEWriteOutMboxExit, event.SPEWriteIntrMboxExit:
		if ra.mboxKind != 0 && ra.mboxKind != event.SPEReadInMboxEnter {
			ra.mbox.Writes++
			ra.mbox.WriteWaitTicks.Add(g - ra.mboxStart)
			ra.mboxKind = 0
		}
	}

	// RunIntervals state machine (intervals.go), emitting straight into
	// the per-state tick sums.
	if int(id) >= len(kindOf) || id == 0 {
		return
	}
	emit := func(state State, start, end uint64) {
		if end > start {
			ra.state[state] += end - start
		}
	}
	switch {
	case kindOf[id] == event.KindEnter:
		if st, stalls := stallState[id]; stalls && !ra.open {
			emit(StateCompute, ra.cursor, g)
			ra.open = true
			ra.openState = st
			ra.openStart = g
		}
	case kindOf[id] == event.KindExit:
		if ra.open && stallState[pairOf[id]] == ra.openState {
			emit(ra.openState, ra.openStart, g)
			ra.open = false
			ra.cursor = g
		}
	case id == event.SPETraceFlush:
		ticks := seg.Args[seg.ArgOff[i]+1] / cpt
		start := g
		if ticks < g {
			start = g - ticks
		}
		if start < ra.cursor {
			start = ra.cursor
		}
		if !ra.open {
			emit(StateCompute, ra.cursor, start)
			emit(StateFlush, start, g)
			ra.cursor = g
		}
	case id == event.SPEProgramEnd:
		if !ra.open {
			emit(StateCompute, ra.cursor, g)
			ra.cursor = g
		}
	}
}

// foldPPE advances the host-side scanner (ppe.go, SummarizePPE) by one
// non-SPE event. PPE records keep their batch relative order across
// windows — they come from the single PPE buffer's chunks, decoded in
// file order — so the shared enter map pairs exactly as the batch scan.
func (a *streamAccumulators) foldPPE(seg *colstore.Store, i int, id event.ID, g uint64) {
	st := &a.ppe
	st.Records++
	info, ok := event.Lookup(id)
	if !ok {
		return
	}
	switch info.Kind {
	case event.KindEnter:
		a.ppeEnter[id] = g
	case event.KindExit:
		start, open := a.ppeEnter[info.Pair]
		if open {
			delete(a.ppeEnter, info.Pair)
			d := g - start
			switch id {
			case event.PPEWaitExit:
				st.SPEWaits++
				st.WaitTicks += d
			case event.PPEReadOutMboxExit, event.PPEReadIntrMboxExit:
				st.MboxReads++
				st.MboxWaitTicks += d
			case event.PPEWriteInMboxExit:
				st.MboxWrites++
				st.MboxWaitTicks += d
			case event.PPEWaitTagExit:
				st.ProxyWaits++
				st.ProxyWaitTicks += d
			}
		}
	}
	switch id {
	case event.PPEDMAGet:
		st.ProxyGets++
		st.ProxyBytes += seg.Args[seg.ArgOff[i]+3]
	case event.PPEDMAPut:
		st.ProxyPuts++
		st.ProxyBytes += seg.Args[seg.ArgOff[i]+3]
	}
}

// foldProfile advances the pair profile (profile.go, ProfileSerial) by
// one event. Matching is per core and per-pair sums commute, so window
// order is equivalent to merged order.
func (a *streamAccumulators) foldProfile(seg *colstore.Store, i int, id event.ID, core uint8, g uint64) {
	if int(id) >= len(kindOf) {
		return
	}
	switch kindOf[id] {
	case event.KindEnter:
		m := a.profOpen[core]
		if m == nil {
			m = make([]uint64, len(kindOf))
			a.profOpen[core] = m
		}
		m[id] = g + 1
	case event.KindExit:
		m := a.profOpen[core]
		if m == nil {
			break
		}
		pair := pairOf[id]
		start := m[pair]
		if start == 0 {
			break
		}
		m[pair] = 0
		p := a.profAcc[pair]
		if p == nil {
			p = &pairAcc{prof: PairProfile{Enter: pair, Confidence: 1}}
			a.profAcc[pair] = p
		}
		p.prof.Count++
		p.prof.Ticks.Add(g - (start - 1))
		p.cores[core>>6] |= 1 << (core & 63)
	}
}

// finishStream runs the validator's end-of-stream checks. Idempotent;
// called once from Finish.
func (a *streamAccumulators) finishStream(truncated bool) {
	if a.finished {
		return
	}
	a.finished = true
	if a.val == nil {
		return
	}
	a.val.finish(truncated, a.meta.Groups, a.confidence())
	a.valIssues = a.val.issues
}

// confidence derives survival fractions from the folded per-core counts
// and the metadata drop accounting — computeConfidence with the event
// columns replaced by the running counters.
func (a *streamAccumulators) confidence() Confidence {
	total := float64(a.events)
	lost := map[uint8]float64{}
	var lostTotal float64
	for _, d := range a.meta.Drops {
		lost[uint8(d.SPE)] += float64(d.Count)
		lostTotal += float64(d.Count)
	}
	c := Confidence{Overall: 1, PerCore: map[uint8]float64{}}
	if total+lostTotal > 0 {
		c.Overall = total / (total + lostTotal)
	}
	for core := 0; core < 256; core++ {
		n := float64(a.got[core])
		if n == 0 {
			continue
		}
		c.PerCore[uint8(core)] = 1
		if l := lost[uint8(core)]; l > 0 {
			c.PerCore[uint8(core)] = n / (n + l)
		}
	}
	for core, l := range lost {
		if a.got[core] == 0 && l > 0 {
			c.PerCore[core] = 0
		}
	}
	return c
}

// snapshot materializes the batch kernel outputs from the accumulated
// state. Open state machines are closed virtually — on copies — exactly
// as the batch kernels close them at end of input, so a snapshot of a
// finished stream is the batch result and a mid-stream snapshot is the
// batch result over the events folded so far.
func (a *streamAccumulators) snapshot(in snapshotInput) *StreamResult {
	conf := a.confidence()
	meta := *a.meta

	issues := make([]Issue, 0, len(in.issues)+len(meta.Drops)+len(a.valIssues)+1)
	if in.truncated {
		issues = append(issues, Issue{"warn", "trace is truncated (crashed or incomplete run)"})
	}
	for _, d := range meta.Drops {
		issues = append(issues,
			Issue{"warn", fmt.Sprintf("SPE %d dropped %d records (main trace region full)", d.SPE, d.Count)})
	}
	issues = append(issues, in.issues...)
	if in.final {
		issues = append(issues, a.valIssues...)
	}
	if len(issues) == 0 {
		issues = nil // batch leaves Issues nil on clean traces
	}

	strs := make(map[uint64]string, len(in.strings))
	for k, v := range in.strings {
		strs[k] = v
	}
	tr := &Trace{
		Header:     a.header,
		Meta:       meta,
		Strings:    strs,
		Truncated:  in.truncated,
		Issues:     issues,
		Confidence: conf,
	}

	s := &Summary{
		Workload:   meta.Workload,
		EventCount: make(map[event.ID]int, len(a.eventCount)),
		TotalRecs:  int(a.events),
	}
	for id, n := range a.eventCount {
		s.EventCount[id] = n
	}
	if a.haveSpan {
		s.WallTicks = a.maxG - a.minG
	}

	var busy uint64
	for run := 0; run < len(meta.Anchors); run++ {
		if run >= len(a.runs) || !a.runs[run].seen {
			continue
		}
		ra := a.runs[run] // value copy: virtual close must not disturb the live machine
		if ra.open && ra.end > ra.openStart {
			ra.state[ra.openState] += ra.end - ra.openStart
		}
		rs := RunSummary{
			Run: run, Core: ra.core, Program: meta.Anchors[run].Program,
			Start: ra.start, End: ra.end, StateTicks: ra.state, Events: ra.events,
			Confidence: conf.ForCore(ra.core),
		}
		s.Runs = append(s.Runs, rs)
		s.FlushTicks += ra.state[StateFlush]
		busy += ra.state[StateCompute]

		ds := ra.dma
		ds.Run, ds.Core = run, ra.core
		s.DMA = append(s.DMA, ds)
		ms := ra.mbox
		ms.Run, ms.Core = run, ra.core
		s.Mbox = append(s.Mbox, ms)
	}
	if len(s.Runs) > 0 {
		var sum, max float64
		for i := range s.Runs {
			b := float64(s.Runs[i].Busy())
			sum += b
			max = math.Max(max, b)
		}
		mean := sum / float64(len(s.Runs))
		if mean > 0 {
			s.LoadImbalance = max / mean
		}
	}

	// Profile: resolve each pair's confidence against the contributing
	// cores, then the batch report order.
	profs := make(map[event.ID]*PairProfile, len(a.profAcc))
	for id, p := range a.profAcc {
		cp := p.prof
		for w := 0; w < 4; w++ {
			for mask := p.cores[w]; mask != 0; mask &= mask - 1 {
				core := uint8(w*64 + bits.TrailingZeros64(mask))
				if c := conf.ForCore(core); c < cp.Confidence {
					cp.Confidence = c
				}
			}
		}
		profs[id] = &cp
	}
	profile := sortProfiles(profs)

	var gaps []Gap
	if a.opts.GapMinTicks > 0 {
		for run := 0; run < len(meta.Anchors) && run < len(a.runs); run++ {
			gaps = append(gaps, a.runs[run].gaps...)
		}
		sort.SliceStable(gaps, func(i, j int) bool { return gaps[i].Dur() > gaps[j].Dur() })
	}

	var tags []TagStats
	for _, t := range a.tags {
		if t.Cmds > 0 {
			tags = append(tags, t)
		}
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i].Bytes > tags[j].Bytes })

	var eff float64
	if a.haveSpan && a.maxG > a.minG {
		eff = float64(busy) / float64(a.maxG-a.minG)
	}

	return &StreamResult{
		Trace:                tr,
		Summary:              s,
		Profile:              profile,
		Gaps:                 gaps,
		Tags:                 tags,
		PPE:                  a.ppe,
		EffectiveConcurrency: eff,
		Complete:             in.complete,
		Bytes:                in.bytes,
		Events:               a.events,
	}
}
