package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"strconv"
	"time"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cycles"
	"github.com/celltrace/pdt/internal/analyzer/diff"
)

// tadKinds is the rotation of tad-cold: every analysis endpoint plus the
// cycle-aligned diff.
var tadKinds = []string{"summary", "profile", "gaps", "critpath", "cycles", "doctor", "diff"}

// artifactKinds are the kinds the daemon memoizes as rendered artifacts;
// a diff is recomputed on every request, so it has no warm path.
var artifactKinds = tadKinds[:6]

// uploadChunk is the payload size of one /v1/upload append.
const uploadChunk = 1 << 20

// serviceLimits mirrors pdt-tad's default admission control (its file
// limit follows -max-body, 64 MiB by default).
func serviceLimits() analyzer.Limits {
	lim := analyzer.DefaultServiceLimits()
	lim.MaxFileBytes = 64 << 20
	return lim
}

// tadOp is one request (or, for tad-upload, one upload session).
type tadOp struct {
	kind  string
	a, b  *traceInput // b is set for diff only
	body  []byte      // diff only: the prebuilt multipart request body
	ctype string
}

// chunk is one prepared upload append body.
type chunk struct {
	body []byte
	gz   bool
}

// tadBench drives one pdt-tad daemon with the tad-cold, tad-warm or
// tad-upload traffic.
type tadBench struct {
	name string
	bin  string
	seed int64

	traces []*traceInput
	pairs  []tracePair
	ops    []tadOp
	// want maps an operation's identity to the SHA-256 of the exact
	// response body it must produce; summaries keeps each trace's
	// compacted summary document for the upload check.
	want      map[string]string
	summaries map[*traceInput][]byte
	chunks    map[*traceInput][]chunk
	footprint int64 // loaded size of all traces, as the cache weighs them

	d      *daemon
	before cacheStats
}

func newTadBench(name, bin string, seed int64) *tadBench {
	return &tadBench{name: name, bin: bin, seed: seed}
}

func opKey(op tadOp) string {
	if op.b != nil {
		return op.a.digest + "|" + op.b.digest + "|" + op.kind
	}
	return op.a.digest + "|" + op.kind
}

// setup generates the traces, computes every expected response in
// process, prepares upload chunks, and starts (and for tad-warm fills)
// the daemon.
func (t *tadBench) setup(ctx context.Context) error {
	var err error
	switch t.name {
	case "tad-warm":
		if t.traces, err = generateAll(ctx, warmConfigs(t.seed)); err != nil {
			return err
		}
		// Never requested as a diff; the traced run replays it.
		t.pairs = []tracePair{{t.traces[1], t.traces[2]}}
		for _, k := range artifactKinds {
			for _, tr := range t.traces {
				t.ops = append(t.ops, tadOp{kind: k, a: tr})
			}
		}
	default:
		for _, p := range tadPairs(t.seed) {
			ts, err := generateAll(ctx, p[:])
			if err != nil {
				return err
			}
			t.traces = append(t.traces, ts...)
			t.pairs = append(t.pairs, tracePair{ts[0], ts[1]})
		}
		if t.name == "tad-upload" {
			for _, tr := range t.traces {
				t.ops = append(t.ops, tadOp{kind: "upload", a: tr})
			}
			break
		}
		// Round r gives pair j kind (j+r) mod 7. Each trace is requested
		// once per round, so between two requests for it every other
		// trace of the pool is loaded; over seven rounds every trace
		// meets every kind.
		for r := range tadKinds {
			for j, p := range t.pairs {
				k := tadKinds[(j+r)%len(tadKinds)]
				if k == "diff" {
					op, err := diffOp(p)
					if err != nil {
						return err
					}
					t.ops = append(t.ops, op)
					continue
				}
				t.ops = append(t.ops, tadOp{kind: k, a: p.a}, tadOp{kind: k, a: p.b})
			}
		}
	}
	if err := t.expect(ctx); err != nil {
		return err
	}
	if t.name == "tad-upload" {
		if err := t.prepareChunks(); err != nil {
			return err
		}
	}
	var flags []string
	if t.name == "tad-cold" {
		// A quarter of the pool's loaded size: every trace is evicted
		// long before the rotation comes back to it.
		flags = []string{"-cache-bytes", strconv.FormatInt(t.footprint/4, 10)}
	}
	if t.d, err = startDaemon(t.bin, flags...); err != nil {
		return err
	}
	if t.name == "tad-warm" {
		for i := range t.ops {
			if s := t.do(ctx, i); s.err != nil {
				return fmt.Errorf("warming %s/%s: %w", t.ops[i].a.cfg.Name, t.ops[i].kind, s.err)
			}
		}
	}
	return nil
}

// expect computes the response every operation must return, straight
// from the analyzer's public writers with no cache in between.
func (t *tadBench) expect(ctx context.Context) error {
	t.want = map[string]string{}
	t.summaries = map[*traceInput][]byte{}
	lim := serviceLimits()
	loaded := map[*traceInput]*analyzer.Trace{}
	for _, tr := range t.traces {
		trace, err := analyzer.LoadContext(ctx, bytes.NewReader(tr.data), lim)
		if err != nil {
			return fmt.Errorf("load %s: %w", tr.cfg.Name, err)
		}
		analyzer.Validate(trace)
		loaded[tr] = trace
		t.footprint += trace.Footprint()
		kinds := artifactKinds
		if t.name == "tad-upload" {
			kinds = []string{"summary"}
		}
		for _, k := range kinds {
			b, err := render(ctx, k, tr.data, trace, lim)
			if err != nil {
				return fmt.Errorf("expected %s of %s: %w", k, tr.cfg.Name, err)
			}
			t.want[tr.digest+"|"+k] = sha(b)
			if k == "summary" {
				if t.summaries[tr], err = compact(b); err != nil {
					return err
				}
			}
		}
	}
	if t.name != "tad-cold" {
		return nil
	}
	for _, p := range t.pairs {
		rep, err := diff.Diff(loaded[p.a], loaded[p.b], diff.Options{Mode: diff.ModeAlign})
		if err != nil {
			return fmt.Errorf("expected diff %s/%s: %w", p.a.cfg.Name, p.b.cfg.Name, err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			return err
		}
		t.want[opKey(tadOp{kind: "diff", a: p.a, b: p.b})] = sha(buf.Bytes())
	}
	return nil
}

// diffOp builds the /v1/diff request of a pair: a multipart body with
// the two traces as fields "a" and "b".
func diffOp(p tracePair) (tadOp, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, side := range []struct {
		name string
		tr   *traceInput
	}{{"a", p.a}, {"b", p.b}} {
		w, err := mw.CreateFormFile(side.name, side.tr.cfg.Name+".pdt")
		if err != nil {
			return tadOp{}, err
		}
		if _, err := w.Write(side.tr.data); err != nil {
			return tadOp{}, err
		}
	}
	if err := mw.Close(); err != nil {
		return tadOp{}, err
	}
	return tadOp{kind: "diff", a: p.a, b: p.b, body: buf.Bytes(), ctype: mw.FormDataContentType()}, nil
}

// render produces one artifact kind of a loaded, validated trace with
// the same writer pdt-tad serves it with.
func render(ctx context.Context, kind string, data []byte, tr *analyzer.Trace, lim analyzer.Limits) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	switch kind {
	case "summary":
		err = analyzer.WriteJSON(tr, analyzer.Summarize(tr), &buf)
	case "profile":
		err = analyzer.WriteProfilePairsJSON(tr, analyzer.Profile(tr), &buf)
	case "gaps":
		min := analyzer.SuggestGapThreshold(tr)
		err = analyzer.WriteGapsJSON(min, analyzer.FindGaps(tr, min), &buf)
	case "critpath":
		err = analyzer.WriteCriticalPathJSON(analyzer.ComputeCriticalPath(tr), &buf)
	case "cycles":
		err = cycles.Detect(tr, cycles.Options{}).WriteJSON(&buf)
	case "doctor":
		var d *analyzer.DoctorReport
		if d, err = analyzer.DoctorDataContext(ctx, data, lim); err == nil {
			err = d.WriteJSON(&buf)
		}
	default:
		err = fmt.Errorf("unknown kind %q", kind)
	}
	return buf.Bytes(), err
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// prepareChunks slices every trace into upload appends; every other
// trace is sent gzip-compressed, chunk by chunk.
func (t *tadBench) prepareChunks() error {
	t.chunks = map[*traceInput][]chunk{}
	for i, tr := range t.traces {
		cs, err := splitChunks(tr.data, i%2 == 1)
		if err != nil {
			return err
		}
		t.chunks[tr] = cs
	}
	return nil
}

func splitChunks(data []byte, gz bool) ([]chunk, error) {
	var out []chunk
	for off := 0; off < len(data); off += uploadChunk {
		c := chunk{body: data[off:min(off+uploadChunk, len(data))]}
		if gz {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			if _, err := zw.Write(c.body); err != nil {
				return nil, err
			}
			if err := zw.Close(); err != nil {
				return nil, err
			}
			c = chunk{body: buf.Bytes(), gz: true}
		}
		out = append(out, c)
	}
	return out, nil
}

func (t *tadBench) close() { t.d.stop() }

func (t *tadBench) inputs() []*traceInput { return t.traces }

func (t *tadBench) diffPairs() []tracePair { return t.pairs }

// do runs operation i: one request (tad-cold, tad-warm) or one whole
// upload session (tad-upload), and checks its response.
func (t *tadBench) do(ctx context.Context, i int) sample {
	op := t.ops[i%len(t.ops)]
	if op.kind == "upload" {
		return upload(ctx, t.d, op.a, t.chunks[op.a], t.summaries[op.a])
	}
	path, body, ctype := "/v1/"+op.kind, op.a.data, "application/octet-stream"
	if op.kind == "diff" {
		path, body, ctype = path+"?mode=align", op.body, op.ctype
	}
	start := time.Now()
	status, resp, err := t.d.do(ctx, http.MethodPost, path, body, map[string]string{"Content-Type": ctype})
	s := sample{dur: time.Since(start), shed: status == http.StatusTooManyRequests}
	switch {
	case err != nil:
		s.err = err
	case status != http.StatusOK:
		s.err = fmt.Errorf("%s %s: status %d: %.200s", path, op.a.cfg.Name, status, resp)
	case sha(resp) != t.want[opKey(op)]:
		s.err = fmt.Errorf("%s %s: response differs from the in-process artifact", path, op.a.cfg.Name)
	}
	return s
}

// upload runs one chunked-upload session (create, append every chunk,
// complete, delete), timing each call as a child span, and checks that the
// completion summary matches the batch summary of the same bytes.
func upload(ctx context.Context, d *daemon, tr *traceInput, chunks []chunk, wantSummary []byte) sample {
	var s sample
	timed := func(name, method, path string, body []byte, hdr map[string]string) (int, []byte, error) {
		t0 := time.Now()
		status, resp, err := d.do(ctx, method, path, body, hdr)
		s.calls = append(s.calls, call{name, time.Since(t0)})
		if status == http.StatusTooManyRequests {
			s.shed = true
		}
		return status, resp, err
	}
	start := time.Now()
	s.err = func() error {
		status, resp, err := timed("create", http.MethodPost, "/v1/upload", nil, nil)
		if err != nil || status != http.StatusCreated {
			return fmt.Errorf("upload create: status %d: %v %.200s", status, err, resp)
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(resp, &created); err != nil {
			return fmt.Errorf("upload create: %w", err)
		}
		off := 0
		for _, c := range chunks {
			hdr := map[string]string{"Content-Type": "application/octet-stream"}
			if c.gz {
				hdr["Content-Encoding"] = "gzip"
			}
			status, resp, err := timed("append", http.MethodPost,
				fmt.Sprintf("/v1/upload/%s?offset=%d", created.ID, off), c.body, hdr)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("upload append at %d: status %d: %v %.200s", off, status, err, resp)
			}
			var ack struct {
				Offset int `json:"offset"`
			}
			if err := json.Unmarshal(resp, &ack); err != nil {
				return fmt.Errorf("upload append: %w", err)
			}
			off = ack.Offset
		}
		status, resp, err = timed("complete", http.MethodPost, "/v1/upload/"+created.ID+"/complete", nil, nil)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("upload complete: status %d: %v %.200s", status, err, resp)
		}
		// Free the session: pdt-tad keeps a completed one for /v1/live
		// until its idle expiry, and caps how many it holds.
		if status, resp, err := timed("delete", http.MethodDelete, "/v1/upload/"+created.ID, nil, nil); err != nil || status != http.StatusNoContent {
			return fmt.Errorf("upload delete: status %d: %v %.200s", status, err, resp)
		}
		var doc struct {
			Offset   int             `json:"offset"`
			Final    bool            `json:"final"`
			Complete bool            `json:"complete"`
			Key      string          `json:"key"`
			Summary  json.RawMessage `json:"summary"`
		}
		if err := json.Unmarshal(resp, &doc); err != nil {
			return fmt.Errorf("upload complete: %w", err)
		}
		got, err := compact(doc.Summary)
		if err != nil {
			return fmt.Errorf("upload summary: %w", err)
		}
		switch {
		case !doc.Final || !doc.Complete || doc.Offset != len(tr.data) || doc.Key != tr.digest:
			return fmt.Errorf("upload %s: final=%v complete=%v offset=%d key=%.12s, want offset %d key %.12s",
				tr.cfg.Name, doc.Final, doc.Complete, doc.Offset, doc.Key, len(tr.data), tr.digest)
		case !bytes.Equal(got, wantSummary):
			return fmt.Errorf("upload %s: completion summary differs from the batch summary", tr.cfg.Name)
		}
		return nil
	}()
	s.dur = time.Since(start)
	return s
}

// begin snapshots the cache counters before a measured loop.
func (t *tadBench) begin(ctx context.Context) error {
	var err error
	t.before, err = t.d.stats(ctx)
	return err
}

// end returns the counters of the loop since begin and checks that the
// traffic stayed what the workload claims to be.
func (t *tadBench) end(ctx context.Context, ss []sample) (cacheStats, error) {
	after, err := t.d.stats(ctx)
	if err != nil {
		return cacheStats{}, err
	}
	st := after.minus(t.before)
	if l := summarize(ss, t.period()); l.shed > 0 {
		return st, fmt.Errorf("%s drifted: %d shed responses from one client", t.name, l.shed)
	}
	switch t.name {
	case "tad-cold":
		if st.Hits > 0 || st.Dedups > 0 || st.Misses == 0 {
			return st, fmt.Errorf("tad-cold drifted: %d trace-load hits, %d dedups, %d misses (want only misses)",
				st.Hits, st.Dedups, st.Misses)
		}
	case "tad-warm":
		if st.Misses > 0 || st.Dedups > 0 || st.Hits == 0 {
			return st, fmt.Errorf("tad-warm drifted: %d misses, %d dedups, %d hits (want only hits)",
				st.Misses, st.Dedups, st.Hits)
		}
	}
	return st, nil
}

// peakRSS is the daemon's peak resident set.
func (t *tadBench) peakRSS() (float64, error) { return t.d.hwmMB() }

// overheadPct and counts describe the simulator runs behind the traces.
func (t *tadBench) overheadPct() float64 { return overheadPct(t.traces) }

func (t *tadBench) fingerprint() string { return fingerprint(t.traces) }

// kernelSpan names the replayed kernel span behind each analysis kind.
var kernelSpan = map[string]string{
	"summary":  "analyzer.summarize_ms",
	"profile":  "analyzer.profile_ms",
	"gaps":     "analyzer.gaps_ms",
	"critpath": "analyzer.critpath_ms",
	"cycles":   "cycles.detect_ms",
}

// layers prices the on-path spans of operation i with the replayed
// costs: each layer call pdt-tad makes for it, as often as it makes it.
func (t *tadBench) layers(i int, per map[*traceInput]costs, pairs map[tracePair]costs) costs {
	op := t.ops[i%len(t.ops)]
	out := costs{}
	add := func(c costs, name string, times float64) { out[name] += times * c[name] }
	c := per[op.a]
	switch {
	case op.kind == "upload":
		add(c, "analyzer.stream_ms", 1)
		add(c, "cache.keyof_ms", 1) // the session's running SHA-256
		add(c, "render.summary", 2) // completion document and adopted summary
		add(c, "render.profile", 1) // adopted profile
	case op.kind == "diff":
		for _, tr := range []*traceInput{op.a, op.b} {
			for _, n := range []string{"cache.keyof_ms", "traceio.parse_ms", "analyzer.load_ms",
				"analyzer.validate_ms", "analyzer.critpath_ms", "cycles.detect_ms"} {
				add(per[tr], n, 1)
			}
		}
		pc := pairs[tracePair{op.a, op.b}]
		add(pc, "diff.align_ms", 1)
		add(pc, "render.diff", 1)
	case t.name == "tad-warm":
		add(c, "cache.keyof_ms", 1)
		out["cache.peek"] = c["cache.peek_us"] / 1000
	default:
		// A cold request hashes the body three times: in the handler,
		// in cache.Artifact and in cache.Load (or cache.Doctor).
		add(c, "cache.keyof_ms", 3)
		if op.kind == "doctor" {
			add(c, "analyzer.doctor_ms", 1)
			add(c, "render.doctor", 1)
			break
		}
		for _, n := range []string{"traceio.parse_ms", "analyzer.load_ms", "analyzer.validate_ms", kernelSpan[op.kind]} {
			add(c, n, 1)
		}
		add(c, "render."+op.kind, 1)
	}
	return out
}

// uploadProbe gives the per-call upload spans: tad-upload's own sessions
// carry them, the other workloads stream each of their traces once
// through the daemon after the timed loops.
func (t *tadBench) uploadProbe(ctx context.Context) ([]sample, error) {
	if t.name == "tad-upload" {
		return nil, nil
	}
	return probeUploads(ctx, t.d, t.traces)
}

// probeUploads streams each trace once, sequentially, through /v1/upload.
func probeUploads(ctx context.Context, d *daemon, ts []*traceInput) ([]sample, error) {
	var out []sample
	for _, tr := range ts {
		cs, err := splitChunks(tr.data, false)
		if err != nil {
			return nil, err
		}
		want, err := summaryDoc(ctx, tr.data)
		if err != nil {
			return nil, err
		}
		s := upload(ctx, d, tr, cs, want)
		if s.err != nil {
			return nil, s.err
		}
		out = append(out, s)
	}
	return out, nil
}

// summaryDoc is the compacted batch summary document of a trace.
func summaryDoc(ctx context.Context, data []byte) ([]byte, error) {
	lim := serviceLimits()
	tr, err := analyzer.LoadContext(ctx, bytes.NewReader(data), lim)
	if err != nil {
		return nil, err
	}
	analyzer.Validate(tr)
	b, err := render(ctx, "summary", data, tr, lim)
	if err != nil {
		return nil, err
	}
	return compact(b)
}

// compact strips a JSON document's insignificant whitespace, so a
// document embedded in another (and re-indented there) compares equal.
func compact(b []byte) ([]byte, error) {
	var c bytes.Buffer
	err := json.Compact(&c, b)
	return c.Bytes(), err
}

func (t *tadBench) period() int { return len(t.ops) }
