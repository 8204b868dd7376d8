package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one pdt-tad process listening on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	exited chan struct{}
}

// startDaemon launches pdt-tad with the given extra flags and waits for
// its "listening on" line.
func startDaemon(bin string, flags ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(filepath.Join(bin, "pdt-tad"), args...)
	// One log line per request would cost the daemon more than some of
	// the requests; nothing reads it.
	cmd.Stderr = nil
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pdt-tad: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "pdt-tad: listening on "); ok {
				addrc <- a
			}
		}
		close(addrc)
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a, ok := <-addrc:
		if !ok {
			<-d.exited
			return nil, errors.New("pdt-tad exited before listening")
		}
		d.base = "http://" + a
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("pdt-tad did not report its address within 10s")
	}
	d.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			// The benchmark measures analysis, not response compression:
			// without this the transport asks for gzip on every request.
			DisableCompression:  true,
			MaxIdleConnsPerHost: 8,
		},
	}
	return d, nil
}

// stop drains the daemon with SIGTERM (killing it after 10s) and waits
// for it to exit.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
}

// hwmMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) hwmMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cacheStats is the cache section of GET /v1/stats.
type cacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Dedups    uint64 `json:"dedups"`
	Evictions uint64 `json:"evictions"`
}

func (a cacheStats) minus(b cacheStats) cacheStats {
	return cacheStats{a.Hits - b.Hits, a.Misses - b.Misses, a.Dedups - b.Dedups, a.Evictions - b.Evictions}
}

func (d *daemon) stats(ctx context.Context) (cacheStats, error) {
	var doc struct {
		Cache cacheStats `json:"cache"`
	}
	status, body, err := d.do(ctx, http.MethodGet, "/v1/stats", nil, nil)
	if err != nil {
		return cacheStats{}, err
	}
	if status != http.StatusOK {
		return cacheStats{}, fmt.Errorf("GET /v1/stats: status %d", status)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return cacheStats{}, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return doc.Cache, nil
}

// do sends one request and reads the whole response.
func (d *daemon) do(ctx context.Context, method, path string, body []byte, hdr map[string]string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, b, nil
}
