package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"github.com/celltrace/pdt/internal/analyzer/cache"
)

// countingBody counts the bytes read from a request body.
type countingBody struct {
	io.ReadCloser
	n int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n += int64(n)
	return n, err
}

// readBodyOutcome is what the probe handler saw of one readBody call.
type readBodyOutcome struct {
	status        int
	data          []byte
	key           cache.Key
	contentLength int64
	wireRead      int64
}

// TestReadBodyContract pins readBody's single-pass contract on every
// way a body can arrive: success paths return the decompressed bytes
// unchanged with their SHA-256 as the key, in a buffer never larger than
// -max-body (and exactly the declared length for identity bodies);
// oversized, bomb and short bodies map to 413/413/400 and never to 200.
func TestReadBodyContract(t *testing.T) {
	const maxBody = 64 << 10
	s := newServer(func() config { c := defaultConfig(); c.maxBody = maxBody; return c }(), quietLogger())
	outcomes := make(chan readBodyOutcome, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := &countingBody{ReadCloser: r.Body}
		r.Body = body
		data, key, serr := s.readBody(w, r, true)
		out := readBodyOutcome{status: http.StatusOK, data: data, key: key, contentLength: r.ContentLength}
		if serr != nil {
			out.status = serr.status
			s.writeError(w, serr.status, serr.err)
		}
		out.wireRead = body.n
		outcomes <- out
	}))
	defer ts.Close()

	payload := make([]byte, 40<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	gzipped := func(b []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(b)
		zw.Close()
		return buf.Bytes()
	}
	do := func(t *testing.T, body io.Reader, gz bool) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL, body)
		if err != nil {
			t.Fatal(err)
		}
		if gz {
			req.Header.Set("Content-Encoding", "gzip")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return // the server may close an over-limit upload mid-send
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	cases := []struct {
		name string
		send func(t *testing.T)
		want int
		// data is the expected decompressed body on success.
		data []byte
		// check runs extra assertions on the outcome.
		check func(t *testing.T, out readBodyOutcome)
	}{
		{
			name: "identity with Content-Length",
			send: func(t *testing.T) { do(t, bytes.NewReader(payload), false) },
			want: http.StatusOK, data: payload,
			check: func(t *testing.T, out readBodyOutcome) {
				if out.contentLength != int64(len(payload)) {
					t.Errorf("Content-Length %d, want %d", out.contentLength, len(payload))
				}
				if cap(out.data) != len(payload) {
					t.Errorf("buffer cap %d, want exactly the declared %d", cap(out.data), len(payload))
				}
			},
		},
		{
			name: "chunked transfer",
			// Hiding Len makes the client send Transfer-Encoding: chunked.
			send: func(t *testing.T) { do(t, struct{ io.Reader }{bytes.NewReader(payload)}, false) },
			want: http.StatusOK, data: payload,
			check: func(t *testing.T, out readBodyOutcome) {
				if out.contentLength != -1 {
					t.Errorf("Content-Length %d, want -1 (chunked)", out.contentLength)
				}
			},
		},
		{
			name: "gzip",
			send: func(t *testing.T) { do(t, bytes.NewReader(gzipped(payload)), true) },
			want: http.StatusOK, data: payload,
		},
		{
			name: "Content-Length over max-body",
			send: func(t *testing.T) { do(t, bytes.NewReader(make([]byte, maxBody+1)), false) },
			want: http.StatusRequestEntityTooLarge,
			check: func(t *testing.T, out readBodyOutcome) {
				if out.wireRead != 0 {
					t.Errorf("read %d body bytes before rejecting a declared oversize body", out.wireRead)
				}
			},
		},
		{
			name: "chunked over max-body",
			send: func(t *testing.T) { do(t, struct{ io.Reader }{bytes.NewReader(make([]byte, 2*maxBody))}, false) },
			want: http.StatusRequestEntityTooLarge,
		},
		{
			name: "gzip bomb",
			send: func(t *testing.T) { do(t, bytes.NewReader(gzipped(make([]byte, 16*maxBody))), true) },
			want: http.StatusRequestEntityTooLarge,
		},
		{
			name: "declared more than sent",
			send: func(t *testing.T) {
				u, _ := url.Parse(ts.URL)
				conn, err := net.Dial("tcp", u.Host)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				fmt.Fprintf(conn, "POST / HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n\r\n", u.Host, len(payload))
				conn.Write(payload[:len(payload)/2])
				conn.(*net.TCPConn).CloseWrite()
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				io.Copy(io.Discard, conn)
			},
			want: http.StatusBadRequest,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.send(t)
			var out readBodyOutcome
			select {
			case out = <-outcomes:
			case <-time.After(10 * time.Second):
				t.Fatal("handler never ran")
			}
			if out.status != tc.want {
				t.Fatalf("status %d, want %d", out.status, tc.want)
			}
			if tc.want == http.StatusOK {
				if !bytes.Equal(out.data, tc.data) {
					t.Errorf("data differs from the decompressed body (%d vs %d bytes)", len(out.data), len(tc.data))
				}
				if want := cache.Key(sha256.Sum256(tc.data)); out.key != want {
					t.Errorf("key %s, want %s", out.key, want)
				}
				if cap(out.data) > maxBody {
					t.Errorf("buffer cap %d exceeds max-body %d", cap(out.data), maxBody)
				}
			}
			if tc.check != nil {
				tc.check(t, out)
			}
		})
	}
}
