// Package cache provides a content-addressed, size-bounded LRU cache of
// loaded traces and their memoized analysis artifacts, with
// singleflight-style deduplication of concurrent loads. pdt-tad's
// endpoints sit on top of it so a repeated upload of the same trace bytes
// skips parsing, decoding, merging and analysis entirely.
//
// Keying is by SHA-256 of the raw trace image, so identical uploads share
// one entry regardless of client or endpoint, and a single flipped byte
// addresses a different entry. Entries are evicted least-recently-used
// once the cache exceeds its entry or byte bound; an entry with a load
// still in flight is pinned and skipped by the evictor, so the bound
// applies to retained entries (concurrent distinct loads can transiently
// exceed it — the requests must be served either way). Load failures are
// never cached: the flight is removed on settle, so the next request for
// those bytes retries.
//
// The cached *Trace is shared by every request that hits its entry. It is
// validated exactly once, when the load settles (analyzer.Validate
// appends to the trace and must not run concurrently), and is read-only
// from then on; the memoized artifacts are computed at most once under
// the entry's lock. Callers must not mutate anything a Handle returns.
package cache

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"sync"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
)

// Key is the content address of a trace image: SHA-256 over its bytes.
type Key [sha256.Size]byte

// KeyOf hashes a trace image.
func KeyOf(data []byte) Key { return sha256.Sum256(data) }

// String renders the key as lowercase hex (the disk tier's and the job
// journal's on-disk spelling).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex spelling back into a Key.
func ParseKey(s string) (Key, bool) {
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(Key{}) {
		return Key{}, false
	}
	return Key(raw), true
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts requests served from a settled entry; Misses counts
	// requests that had to run the load themselves; Dedups counts
	// requests that piggybacked on another request's in-flight load.
	Hits, Misses, Dedups uint64
	// Evictions counts entries removed by the LRU bound.
	Evictions uint64
	// Entries and Bytes describe current retention; MaxEntries/MaxBytes
	// are the configured bounds (0 = unbounded).
	Entries    int
	Bytes      int64
	MaxEntries int
	MaxBytes   int64
}

// Cache is the content-addressed trace cache. The zero value is not
// usable; call New.
type Cache struct {
	maxEntries int
	maxBytes   int64
	// disk is the optional second tier; see AttachDisk. Artifacts and
	// raw images are written through to it so a warm cache survives a
	// process restart, and restores are CRC-verified so a corrupt
	// object recomputes instead of serving wrong bytes.
	disk *DiskTier

	mu        sync.Mutex
	ll        *list.List // *entry, most recently used at the front
	entries   map[Key]*entry
	bytes     int64
	hits      uint64
	misses    uint64
	dedups    uint64
	evictions uint64
}

// New builds a cache bounded to maxEntries entries and maxBytes estimated
// trace bytes (each 0 = unbounded on that axis).
func New(maxEntries int, maxBytes int64) *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		entries:    map[Key]*entry{},
	}
}

// entry is one content address worth of cached state. The trace and
// doctor flights are independent: corrupt bytes fail the strict load but
// still produce a doctor report, and both can be cached side by side.
type entry struct {
	key    Key
	elem   *list.Element
	weight int64
	trace  *flight
	doctor *flight
	// adopted holds artifact bytes installed from a peer replica for a
	// key no local flight has loaded (the replica has the artifact but
	// never saw the trace bytes). A later local load supersedes it via
	// the flight memo; LRU eviction applies to it like any other weight.
	adopted map[string][]byte
}

// inFlight reports whether any of the entry's loads is still running;
// such entries are pinned against eviction.
func (e *entry) inFlight() bool {
	return (e.trace != nil && !e.trace.settled) || (e.doctor != nil && !e.doctor.settled)
}

// flight is one load (trace or doctor) plus its memoized artifacts.
// done/err/trace/doctor follow the singleflight protocol: the leader
// fills them, settles, then closes done; waiters read only after done.
type flight struct {
	done    chan struct{}
	settled bool // guarded by Cache.mu
	weight  int64
	err     error
	trace   *analyzer.Trace
	doctor  *analyzer.DoctorReport

	memoMu   sync.Mutex
	summary  *analyzer.Summary
	profile  []analyzer.PairProfile
	gapsDone bool
	gapMin   uint64
	gaps     []analyzer.Gap
	critpath *analyzer.CriticalPath
	cycles   *cycles.Report
	// arts memoizes the rendered JSON artifact bytes per kind — what
	// the service actually serves, and what spills to the disk tier.
	arts map[string][]byte
}

// Handle is the per-request view of a cached trace: the shared loaded
// Trace plus lazily memoized analysis artifacts. Everything it returns is
// shared across requests and must be treated as immutable.
type Handle struct{ f *flight }

// Trace returns the loaded, validated trace.
func (h *Handle) Trace() *analyzer.Trace { return h.f.trace }

// Summary returns the memoized full-trace summary.
func (h *Handle) Summary() *analyzer.Summary {
	h.f.memoMu.Lock()
	defer h.f.memoMu.Unlock()
	if h.f.summary == nil {
		h.f.summary = analyzer.Summarize(h.f.trace)
	}
	return h.f.summary
}

// Profile returns the memoized per-pair interval profile.
func (h *Handle) Profile() []analyzer.PairProfile {
	h.f.memoMu.Lock()
	defer h.f.memoMu.Unlock()
	if h.f.profile == nil {
		h.f.profile = analyzer.Profile(h.f.trace)
	}
	return h.f.profile
}

// Gaps returns the memoized gap report at the auto-suggested threshold.
func (h *Handle) Gaps() (minTicks uint64, gaps []analyzer.Gap) {
	h.f.memoMu.Lock()
	defer h.f.memoMu.Unlock()
	if !h.f.gapsDone {
		h.f.gapMin = analyzer.SuggestGapThreshold(h.f.trace)
		h.f.gaps = analyzer.FindGaps(h.f.trace, h.f.gapMin)
		h.f.gapsDone = true
	}
	return h.f.gapMin, h.f.gaps
}

// CriticalPath returns the memoized critical-path analysis.
func (h *Handle) CriticalPath() *analyzer.CriticalPath {
	h.f.memoMu.Lock()
	defer h.f.memoMu.Unlock()
	if h.f.critpath == nil {
		h.f.critpath = analyzer.ComputeCriticalPath(h.f.trace)
	}
	return h.f.critpath
}

// Cycles returns the memoized cycle/phase detection report.
func (h *Handle) Cycles() *cycles.Report {
	h.f.memoMu.Lock()
	defer h.f.memoMu.Unlock()
	if h.f.cycles == nil {
		h.f.cycles = cycles.Detect(h.f.trace, cycles.Options{})
	}
	return h.f.cycles
}

// Load returns a handle for the trace image, loading it at most once per
// content address no matter how many requests race: the first request
// becomes the leader and runs the load under its own ctx; concurrent
// requests for the same bytes wait on the same flight. If the leader's
// request is cancelled mid-load, a live waiter retries the load itself
// rather than failing on the leader's context error.
//
// key must be KeyOf(data); callers hash once, as the bytes arrive, and
// pass the key down. The trace is parsed in place (analyzer.LoadBytes):
// the cache keeps no reference to data.
func (c *Cache) Load(ctx context.Context, key Key, data []byte, lim analyzer.Limits) (*Handle, error) {
	for {
		f, lead := c.acquire(key, false)
		if lead {
			tr, err := analyzer.LoadBytes(ctx, data, lim)
			if err == nil {
				// Validate once while the flight is still exclusive; the
				// shared trace is immutable from here on.
				analyzer.Validate(tr)
				f.trace = tr
				f.weight = tr.Footprint()
			}
			f.err = err
			c.settle(key, f, false)
			if err != nil {
				return nil, err
			}
			// Spill the raw image to the disk tier after settling, so
			// dedup waiters are not held behind an fsync. Failure only
			// latches the tier degraded; the request is served either way.
			if c.disk != nil {
				_ = c.disk.Put(key, KindTrace, data)
			}
			return &Handle{f}, nil
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err != nil {
			if isCtxErr(f.err) && ctx.Err() == nil {
				continue // the leader's request died, not ours: retry
			}
			return nil, f.err
		}
		return &Handle{f}, nil
	}
}

// Doctor returns the salvage/recovery report for the trace image, cached
// and deduplicated exactly like Load. Recoverable damage is a valid
// (cached) result; only hard failures — cancellation, admission limits —
// are errors, and those are never cached. key must be KeyOf(data).
func (c *Cache) Doctor(ctx context.Context, key Key, data []byte, lim analyzer.Limits) (*analyzer.DoctorReport, error) {
	for {
		f, lead := c.acquire(key, true)
		if lead {
			d, err := analyzer.DoctorDataContext(ctx, data, lim)
			if err == nil {
				f.doctor = d
				f.weight = 4096
				if d.Trace != nil {
					f.weight += d.Trace.Footprint()
				}
			}
			f.err = err
			c.settle(key, f, true)
			if err != nil {
				return nil, err
			}
			return d, nil
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err != nil {
			if isCtxErr(f.err) && ctx.Err() == nil {
				continue
			}
			return nil, f.err
		}
		return f.doctor, nil
	}
}

// AttachDisk wires a disk-backed second tier under the same content
// addresses: rendered artifacts and raw trace images write through to
// it, Artifact consults it between the memory tier and a recompute, and
// a warm cache therefore survives a process restart. Call before the
// cache starts serving.
func (c *Cache) AttachDisk(d *DiskTier) { c.disk = d }

// Disk returns the attached disk tier, or nil.
func (c *Cache) Disk() *DiskTier { return c.disk }

// RawImage restores a trace image from the disk tier by content key —
// how a replayed job recovers the bytes of an upload whose HTTP request
// died with the previous process.
func (c *Cache) RawImage(key Key) ([]byte, bool) {
	if c.disk == nil {
		return nil, false
	}
	return c.disk.Get(key, KindTrace)
}

// AnalysisKinds lists the artifact kinds Artifact can produce.
var AnalysisKinds = []string{KindSummary, KindProfile, KindGaps, KindCritPath, KindCycles, KindDoctor}

// ValidKind reports whether kind names a servable artifact.
func ValidKind(kind string) bool {
	for _, k := range AnalysisKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// Render computes the canonical JSON artifact of one kind from a
// handle, using the handle's memoized analysis (each underlying kernel
// still runs at most once per entry). The bytes are deterministic for a
// given trace image, which is what makes the disk tier's
// content-addressed artifacts and the chaos harness's byte-convergence
// check possible.
func Render(kind string, h *Handle) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch kind {
	case KindSummary:
		err = analyzer.WriteJSON(h.Trace(), h.Summary(), &buf)
	case KindProfile:
		err = analyzer.WriteProfilePairsJSON(h.Trace(), h.Profile(), &buf)
	case KindGaps:
		min, gaps := h.Gaps()
		err = analyzer.WriteGapsJSON(min, gaps, &buf)
	case KindCritPath:
		err = analyzer.WriteCriticalPathJSON(h.CriticalPath(), &buf)
	case KindCycles:
		err = h.Cycles().WriteJSON(&buf)
	default:
		return nil, fmt.Errorf("cache: unknown artifact kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Artifact returns the rendered JSON artifact of the given kind for the
// trace image, from the fastest tier that has it:
//
//  1. the memory tier's memoized artifact bytes (a settled entry),
//  2. the disk tier, CRC-verified (a corrupt object is deleted and the
//     lookup falls through to recompute),
//  3. computed — loading the trace through the normal singleflight path
//     if needed — then memoized and spilled to the disk tier.
//
// After a restart, path 2 is what makes the warm cache real: the upload
// is hashed and served without parsing, decoding, or analyzing.
func (c *Cache) Artifact(ctx context.Context, data []byte, kind string, lim analyzer.Limits) ([]byte, error) {
	return c.KeyedArtifact(ctx, KeyOf(data), data, kind, lim)
}

// KeyedArtifact is Artifact for a caller that already holds the image's
// content key (key must be KeyOf(data)), so the bytes are not hashed
// again.
func (c *Cache) KeyedArtifact(ctx context.Context, key Key, data []byte, kind string, lim analyzer.Limits) ([]byte, error) {
	if b, ok := c.peekArtifact(key, kind); ok {
		return b, nil
	}
	if c.disk != nil {
		if b, ok := c.disk.Get(key, kind); ok {
			return b, nil
		}
	}
	if kind == KindDoctor {
		d, err := c.Doctor(ctx, key, data, lim)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := d.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return c.adoptArtifact(key, kind, buf.Bytes()), nil
	}
	h, err := c.Load(ctx, key, data, lim)
	if err != nil {
		return nil, err
	}
	b, err := Render(kind, h)
	if err != nil {
		return nil, err
	}
	b = storeArtifact(h.f, kind, b)
	if c.disk != nil {
		_ = c.disk.Put(key, kind, b)
	}
	return b, nil
}

// Peek returns the rendered artifact for a key from the fastest tier
// that already holds it — the memory memo, then the disk tier — and
// never computes. It is the cluster peer-peek read path: a replica asks
// the key's owner "do you have this?", and a cold owner must answer
// cheaply instead of analyzing a trace it does not even have the bytes
// for.
func (c *Cache) Peek(key Key, kind string) ([]byte, bool) {
	if b, ok := c.peekArtifact(key, kind); ok {
		return b, true
	}
	if c.disk != nil {
		if b, ok := c.disk.Get(key, kind); ok {
			return b, true
		}
	}
	return nil, false
}

// AdoptArtifact installs externally produced artifact bytes (fetched
// from the key's owner replica) into the local tiers: memoized onto the
// entry if one is settled, and written through to the disk tier. The
// bytes must be the canonical rendering for the key — in cluster mode
// both sides derive them deterministically from the same trace image.
func (c *Cache) AdoptArtifact(key Key, kind string, b []byte) []byte {
	return c.adoptArtifact(key, kind, b)
}

// peekArtifact serves the memory tier's memoized artifact bytes without
// triggering a load. A hit counts as a cache hit and refreshes LRU.
func (c *Cache) peekArtifact(key Key, kind string) ([]byte, bool) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		c.mu.Unlock()
		return nil, false
	}
	var f *flight
	if kind == KindDoctor {
		f = e.doctor
	} else {
		f = e.trace
	}
	adopted := e.adopted[kind]
	if f == nil || !f.settled || f.err != nil {
		if adopted == nil {
			c.mu.Unlock()
			return nil, false
		}
		c.ll.MoveToFront(e.elem)
		c.hits++
		c.mu.Unlock()
		return adopted, true
	}
	c.ll.MoveToFront(e.elem)
	c.mu.Unlock()
	f.memoMu.Lock()
	b := f.arts[kind]
	f.memoMu.Unlock()
	if b == nil {
		// A local flight that never rendered this kind does not hide
		// bytes adopted from a peer earlier.
		if adopted == nil {
			return nil, false
		}
		b = adopted
	}
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
	return b, true
}

// storeArtifact memoizes rendered bytes on a flight; the first writer
// wins so concurrent renders converge on one shared slice.
func storeArtifact(f *flight, kind string, b []byte) []byte {
	f.memoMu.Lock()
	defer f.memoMu.Unlock()
	if prev := f.arts[kind]; prev != nil {
		return prev
	}
	if f.arts == nil {
		f.arts = map[string][]byte{}
	}
	f.arts[kind] = b
	return b
}

// adoptArtifact memoizes rendered bytes onto whatever flight currently
// holds the key or, when no settled flight exists, retains them on the
// entry directly (bounded by the normal LRU accounting) — a memory-only
// replica must not re-fetch what it just got — and spills them to the
// disk tier.
func (c *Cache) adoptArtifact(key Key, kind string, b []byte) []byte {
	c.mu.Lock()
	e := c.entries[key]
	var f *flight
	if e != nil {
		if kind == KindDoctor {
			f = e.doctor
		} else {
			f = e.trace
		}
	}
	if f != nil && f.settled && f.err == nil {
		c.mu.Unlock()
		b = storeArtifact(f, kind, b)
	} else {
		if e == nil {
			e = &entry{key: key}
			e.elem = c.ll.PushFront(e)
			c.entries[key] = e
		}
		if prev := e.adopted[kind]; prev != nil {
			b = prev
		} else {
			if e.adopted == nil {
				e.adopted = map[string][]byte{}
			}
			e.adopted[kind] = b
			e.weight += int64(len(b))
			c.bytes += int64(len(b))
		}
		c.ll.MoveToFront(e.elem)
		c.evict(e)
		c.mu.Unlock()
	}
	if c.disk != nil {
		_ = c.disk.Put(key, kind, b)
	}
	return b
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Dedups: c.dedups,
		Evictions: c.evictions,
		Entries:   len(c.entries), Bytes: c.bytes,
		MaxEntries: c.maxEntries, MaxBytes: c.maxBytes,
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// acquire looks up (or creates) the flight for key. lead reports whether
// the caller must run the load and settle it. Settled failed flights are
// removed in settle, so an existing flight seen here is either in flight
// or a settled success.
func (c *Cache) acquire(key Key, doctor bool) (f *flight, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		e = &entry{key: key}
		e.elem = c.ll.PushFront(e)
		c.entries[key] = e
	} else {
		c.ll.MoveToFront(e.elem)
	}
	f = e.trace
	if doctor {
		f = e.doctor
	}
	if f == nil {
		f = &flight{done: make(chan struct{})}
		if doctor {
			e.doctor = f
		} else {
			e.trace = f
		}
		c.misses++
		return f, true
	}
	if f.settled {
		c.hits++
	} else {
		c.dedups++
	}
	return f, false
}

// settle publishes the flight result: accounts its weight (or removes the
// failed flight so the next request retries), runs eviction, and releases
// the waiters.
func (c *Cache) settle(key Key, f *flight, doctor bool) {
	c.mu.Lock()
	f.settled = true
	e := c.entries[key]
	if f.err != nil {
		if e != nil {
			if doctor && e.doctor == f {
				e.doctor = nil
			} else if !doctor && e.trace == f {
				e.trace = nil
			}
			if e.trace == nil && e.doctor == nil && len(e.adopted) == 0 {
				c.ll.Remove(e.elem)
				delete(c.entries, key)
			}
		}
	} else if e != nil {
		e.weight += f.weight
		c.bytes += f.weight
		c.ll.MoveToFront(e.elem)
		c.evict(e)
	}
	c.mu.Unlock()
	close(f.done)
}

// over reports whether either bound is exceeded. Called with mu held.
func (c *Cache) over() bool {
	return (c.maxEntries > 0 && len(c.entries) > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes)
}

// evict removes least-recently-used entries until the cache fits its
// bounds, skipping in-flight entries and the entry just touched (the
// request being served needs it regardless of budget). Called with mu
// held.
func (c *Cache) evict(keep *entry) {
	for c.over() {
		var victim *entry
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*entry)
			if e == keep || e.inFlight() {
				continue
			}
			victim = e
			break
		}
		if victim == nil {
			return
		}
		c.ll.Remove(victim.elem)
		delete(c.entries, victim.key)
		c.bytes -= victim.weight
		c.evictions++
	}
}
