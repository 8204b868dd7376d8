package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"

	"github.com/celltrace/pdt/internal/analyzer"
	"github.com/celltrace/pdt/internal/analyzer/cache"
	"github.com/celltrace/pdt/internal/analyzer/diff"
	"github.com/celltrace/pdt/internal/core/traceio"
)

// diffSides extracts the two trace images from a /v1/diff request body.
// Two encodings are accepted:
//
//   - multipart/form-data with parts named "a" and "b" (curl -F a=@x.pdt
//     -F b=@y.pdt), and
//   - a JSON document {"a": "<base64>", "b": "<base64>"}.
//
// Multipart sides are read into one arena sized to the body: decoded
// parts never outgrow the bytes they came from, so the arena is
// allocated once and never regrown.
func diffSides(r *http.Request, data []byte) (a, b []byte, err error) {
	ct := r.Header.Get("Content-Type")
	mt, params, _ := mime.ParseMediaType(ct)
	if mt == "multipart/form-data" {
		boundary := params["boundary"]
		if boundary == "" {
			return nil, nil, errors.New("multipart body without boundary")
		}
		mr := multipart.NewReader(bytes.NewReader(data), boundary)
		arena := make([]byte, 0, len(data))
		for {
			part, err := mr.NextPart()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, fmt.Errorf("reading multipart body: %w", err)
			}
			name := part.FormName()
			if name != "a" && name != "b" {
				continue
			}
			start := len(arena)
			if arena, err = readAllCapped(part, arena, int64(len(data)), nil); err != nil {
				return nil, nil, fmt.Errorf("reading part %q: %w", name, err)
			}
			side := arena[start:len(arena):len(arena)]
			if name == "a" {
				a = side
			} else {
				b = side
			}
		}
	} else {
		var body struct {
			A []byte `json:"a"`
			B []byte `json:"b"`
		}
		if err := json.Unmarshal(data, &body); err != nil {
			return nil, nil, fmt.Errorf(`diff body must be multipart (fields "a","b") or JSON {"a":base64,"b":base64}: %w`, err)
		}
		a, b = body.A, body.B
	}
	if len(a) == 0 || len(b) == 0 {
		return nil, nil, errors.New(`diff needs both sides: multipart fields (or JSON keys) "a" and "b"`)
	}
	return a, b, nil
}

// renderDiff serves POST /v1/diff: load both sides (through the shared
// content-addressed cache when enabled, so each distinct image loads
// once no matter how many diffs reference it), diff them, and emit the
// structured report. A corrupt side comes back as a doctor-style 422
// naming the side and carrying its recovery report with partial
// confidence; a workload mismatch or a bad ?mode= is a clear 400.
//
// The optional ?mode=match|align query parameter turns on the per-cycle
// layer; with the cache enabled the cycle reports come from the handles'
// memoized artifacts, so repeated cycle-aware diffs of the same images
// never re-detect.
func (s *server) renderDiff(ctx context.Context, r *http.Request, data []byte, _ cache.Key, w io.Writer) error {
	da, db, err := diffSides(r, data)
	if err != nil {
		return err
	}
	var trA, trB *analyzer.Trace
	opt := diff.Options{Mode: r.URL.Query().Get("mode")}
	if s.cache != nil {
		ha, hb, err := s.cache.LoadPair(ctx, da, db, s.cfg.limits)
		if err != nil {
			return s.diffLoadError(ctx, err)
		}
		trA, trB = ha.Trace(), hb.Trace()
		opt.CritPathA, opt.CritPathB = ha.CriticalPath(), hb.CriticalPath()
		if opt.Mode != "" {
			opt.CyclesA, opt.CyclesB = ha.Cycles(), hb.Cycles()
		}
	} else {
		if trA, err = s.loadDiffSide(ctx, "a", da); err != nil {
			return err
		}
		if trB, err = s.loadDiffSide(ctx, "b", db); err != nil {
			return err
		}
	}
	rep, err := diff.Diff(trA, trB, opt)
	if err != nil {
		if errors.Is(err, diff.ErrWorkloadMismatch) || errors.Is(err, diff.ErrBadMode) {
			return &statusError{status: http.StatusBadRequest, err: err}
		}
		return err
	}
	return rep.WriteJSON(w)
}

// loadDiffSide is the cache-disabled load of one diff side, with the
// same corrupt-side mapping as the cached path.
func (s *server) loadDiffSide(ctx context.Context, side string, data []byte) (*analyzer.Trace, error) {
	tr, err := s.loadUncached(ctx, data)
	if err != nil {
		return nil, s.diffLoadError(ctx, &cache.SideError{Side: side, Err: err, Data: data})
	}
	return tr, nil
}

// diffLoadError maps a one-sided load failure: corrupt bytes become a
// doctor-style 422 whose body names the side and embeds that side's
// recovery report (verdict plus partial confidence), everything else
// passes through to the generic status mapping.
func (s *server) diffLoadError(ctx context.Context, err error) error {
	var se *cache.SideError
	if !errors.As(err, &se) || !traceio.IsCorrupt(se.Err) {
		return err
	}
	doc := struct {
		Error  string          `json:"error"`
		Side   string          `json:"side"`
		Doctor json.RawMessage `json:"doctor,omitempty"`
	}{
		Error: fmt.Sprintf("side %s is corrupt: %v — see embedded doctor report", se.Side, se.Err),
		Side:  se.Side,
	}
	var d *analyzer.DoctorReport
	var derr error
	if s.cache != nil {
		d, derr = s.cache.Doctor(ctx, se.Key, se.Data, s.cfg.limits)
	} else {
		d, derr = analyzer.DoctorDataContext(ctx, se.Data, s.cfg.limits)
	}
	if derr == nil && d != nil {
		var buf bytes.Buffer
		if d.WriteJSON(&buf) == nil {
			doc.Doctor = json.RawMessage(buf.Bytes())
		}
	}
	body, merr := json.MarshalIndent(&doc, "", "  ")
	if merr != nil {
		body = nil
	}
	return &statusError{status: http.StatusUnprocessableEntity, body: body, err: se}
}
