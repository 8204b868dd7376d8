package main

// gzip transport. Uploads may arrive Content-Encoding: gzip (trace
// images compress well — they are mostly deltas and zeros) and JSON
// responses are compressed when the client's Accept-Encoding allows it.
// The body cap applies on both sides of the decompressor: MaxBytesReader
// bounds the wire bytes and the decompressed image is re-checked against
// the same limit, so a small gzip bomb cannot smuggle an oversized trace
// past admission control.

import (
	"compress/gzip"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http"
	"strings"
	"sync"

	"github.com/celltrace/pdt/internal/analyzer/cache"
)

// gzipPool recycles response compressors: a gzip.Writer carries the
// full deflate state (~800 KiB), which would otherwise be reallocated
// on every compressed response.
var gzipPool = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

// readBody is the one reader of whole analysis bodies: it reads the
// request body under the configured cap in a single pass, transparently
// decompressing gzip uploads, and — when keyed is set — computes the
// body's SHA-256 content key from the same bytes as they land, so nothing
// downstream hashes the body again. An identity body with a declared
// Content-Length is read into a buffer of exactly that size (a declared
// length over the cap is a 413 before any read); gzip and chunked bodies
// grow their buffer, never past the cap. Failures come back as a
// *statusError so both the analysis stack and the job endpoint map them
// the same way.
func (s *server) readBody(w http.ResponseWriter, r *http.Request, keyed bool) ([]byte, cache.Key, *statusError) {
	limit := s.cfg.maxBody
	if r.ContentLength > limit {
		return nil, cache.Key{}, &statusError{
			status: http.StatusRequestEntityTooLarge,
			err:    fmt.Errorf("declared body of %d bytes exceeds %d", r.ContentLength, limit),
		}
	}
	body := io.Reader(http.MaxBytesReader(w, r.Body, limit))
	if enc := r.Header.Get("Content-Encoding"); enc != "" {
		if !strings.EqualFold(enc, "gzip") {
			return nil, cache.Key{}, &statusError{
				status: http.StatusUnsupportedMediaType,
				err:    fmt.Errorf("unsupported Content-Encoding %q", enc),
			}
		}
		zr, err := gzip.NewReader(body)
		if err != nil {
			return nil, cache.Key{}, &statusError{
				status: http.StatusBadRequest,
				err:    fmt.Errorf("gzip body: %w", err),
			}
		}
		defer zr.Close()
		body = zr
	}
	var h hash.Hash
	if keyed {
		h = sha256.New()
	}
	// The wire length is exact for identity bodies and a lower bound
	// for gzip ones; chunked bodies (-1) start small and grow.
	data, err := readAllCapped(body, make([]byte, 0, min(limit, max(r.ContentLength, 512))), limit, h)
	if err != nil {
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &mbe):
			return nil, cache.Key{}, &statusError{status: http.StatusRequestEntityTooLarge, err: err}
		case errors.Is(err, errBodyTooLarge):
			return nil, cache.Key{}, &statusError{
				status: http.StatusRequestEntityTooLarge,
				err:    fmt.Errorf("decompressed body exceeds %d bytes", limit),
			}
		}
		return nil, cache.Key{}, &statusError{
			status: http.StatusBadRequest,
			err:    fmt.Errorf("reading body: %w", err),
		}
	}
	var key cache.Key
	if h != nil {
		h.Sum(key[:0])
	}
	return data, key, nil
}

// errBodyTooLarge reports a body that produced more than the cap.
var errBodyTooLarge = errors.New("body exceeds the cap")

// readAllCapped reads r to EOF, appending to buf and feeding every byte
// to h (when non-nil) as it lands. A full buffer is probed with a
// one-byte read before it grows, so a presized buffer that exactly fits
// the body is never reallocated; growth doubles up to limit and a body
// longer than limit fails with errBodyTooLarge.
func readAllCapped(r io.Reader, buf []byte, limit int64, h hash.Hash) ([]byte, error) {
	var probe [1]byte
	for {
		dst := buf[len(buf):cap(buf)]
		if len(dst) == 0 {
			dst = probe[:]
		}
		n, err := r.Read(dst)
		if n > 0 {
			if len(buf) == cap(buf) {
				if int64(len(buf)) >= limit {
					return nil, errBodyTooLarge
				}
				grown := make([]byte, len(buf), min(limit, max(2*int64(cap(buf)), 512)))
				copy(grown, buf)
				buf = append(grown, probe[0])
			} else {
				buf = buf[:len(buf)+n]
			}
			if h != nil {
				h.Write(buf[len(buf)-n:])
			}
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// streamBody returns the request body as a plain decompressed stream
// for the chunked-upload handlers: wire bytes are capped by
// MaxBytesReader and gzip is inflated lazily, so the caller sees (and
// caps) decompressed bytes as they emerge instead of after the whole
// body was buffered — admission control applies mid-inflate.
func (s *server) streamBody(w http.ResponseWriter, r *http.Request) (io.ReadCloser, *statusError) {
	body := io.Reader(http.MaxBytesReader(w, r.Body, s.cfg.maxBody))
	if enc := r.Header.Get("Content-Encoding"); enc != "" {
		if !strings.EqualFold(enc, "gzip") {
			return nil, &statusError{
				status: http.StatusUnsupportedMediaType,
				err:    fmt.Errorf("unsupported Content-Encoding %q", enc),
			}
		}
		zr, err := gzip.NewReader(body)
		if err != nil {
			return nil, &statusError{
				status: http.StatusBadRequest,
				err:    fmt.Errorf("gzip body: %w", err),
			}
		}
		return zr, nil
	}
	return io.NopCloser(body), nil
}

// gzipResponses negotiates response compression: when the client
// accepts gzip, application/json bodies are compressed. The cluster
// peer frames (application/octet-stream) pass through untouched so
// their CRC covers exactly the bytes on the wire.
func gzipResponses(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Add("Vary", "Accept-Encoding")
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			next.ServeHTTP(w, r)
			return
		}
		gw := &gzipWriter{ResponseWriter: w}
		defer gw.close()
		next.ServeHTTP(gw, r)
	})
}

// gzipWriter decides on the first write (when Content-Type is known)
// whether to compress, so non-JSON responses keep their exact bytes.
type gzipWriter struct {
	http.ResponseWriter
	zw      *gzip.Writer
	decided bool
}

func (g *gzipWriter) decide() {
	if g.decided {
		return
	}
	g.decided = true
	if strings.HasPrefix(g.Header().Get("Content-Type"), "application/json") {
		g.Header().Set("Content-Encoding", "gzip")
		g.Header().Del("Content-Length")
		g.zw = gzipPool.Get().(*gzip.Writer)
		g.zw.Reset(g.ResponseWriter)
	}
}

func (g *gzipWriter) WriteHeader(code int) {
	g.decide()
	g.ResponseWriter.WriteHeader(code)
}

func (g *gzipWriter) Write(p []byte) (int, error) {
	g.decide()
	if g.zw != nil {
		return g.zw.Write(p)
	}
	return g.ResponseWriter.Write(p)
}

// close flushes the compressor and returns it to the pool; a response
// that never wrote stays empty.
func (g *gzipWriter) close() {
	if g.zw != nil {
		_ = g.zw.Close()
		gzipPool.Put(g.zw)
		g.zw = nil
	}
}
