package main

import (
	"bytes"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sssj/internal/apss"
	"sssj/internal/server"
	"sssj/internal/vec"
)

// lockedBuffer is the daemon log sink of the tests: the daemon's
// goroutines (the signal handler's "shutting down" line among them)
// write while the test reads.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestDaemonEndToEnd(t *testing.T) {
	var logBuf lockedBuffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-quiet"}, &logBuf, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not become ready")
	}

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	v := vec.MustNew([]uint32{1, 2}, []float64{1, 1}).Normalize()
	if _, _, err := c.Add(0, v); err != nil {
		t.Fatal(err)
	}
	_, ms, err := c.Add(1, v)
	if err != nil || len(ms) != 1 {
		t.Fatalf("daemon match: %v %v", ms, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// SIGTERM triggers a clean shutdown.
	syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// TestDaemonMetricsFlag: -metrics boots the HTTP endpoint, logs its
// bound address, and serves a Prometheus scrape of the live sessions.
func TestDaemonMetricsFlag(t *testing.T) {
	var logBuf lockedBuffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-quiet",
			"-metrics", "127.0.0.1:0", "-queue", "16", "-entry-budget", "100000"}, &logBuf, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	// ready fires after the metrics server is up and logged.
	m := regexp.MustCompile(`metrics on (\S+)`).FindStringSubmatch(logBuf.String())
	if m == nil {
		t.Fatalf("no metrics address in log: %q", logBuf.String())
	}

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	v := vec.MustNew([]uint32{1, 2}, []float64{1, 1}).Normalize()
	if _, _, err := c.Add(0, v); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + m[1] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `sssj_items_total{session="default"} 1`) {
		t.Fatalf("scrape missing the default session's item count:\n%s", body)
	}
	c.Close()

	syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	// A metrics address that cannot bind is a startup error.
	var buf bytes.Buffer
	if err := run([]string{"-addr", "127.0.0.1:0", "-quiet", "-metrics", "256.0.0.1:1"}, &buf, nil); err == nil {
		t.Fatal("unbindable -metrics address accepted")
	}
}

func TestDaemonBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-index", "NOPE"},
		{"-theta", "0"},
		{"-addr", "256.256.256.256:99999"},
	} {
		if err := run(args, &buf, nil); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestDaemonLatenessAndWindowFlags: a daemon started with -lateness
// serves the WM heartbeat, and -window validation rejects bad specs.
func TestDaemonLatenessAndWindowFlags(t *testing.T) {
	var logBuf lockedBuffer
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-quiet",
			"-lateness", "5", "-window", "tumbling:10"}, &logBuf, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	v := vec.MustNew([]uint32{1}, []float64{1})
	// Out of order within δ: admissible under -lateness.
	if _, _, err := c.Add(3, v); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Add(1, v); err != nil {
		t.Fatalf("within-lateness add rejected: %v", err)
	}
	// WM releases both buffered items into the tumbling window; they
	// share window [0,10) but the window is still open, so no matches yet.
	wm, ms, err := c.Watermark(8)
	if err != nil || wm != 3 || len(ms) != 0 {
		t.Fatalf("WM 8: wm=%v ms=%v err=%v", wm, ms, err)
	}
	// Closing the window (watermark past 10) emits the pair.
	wm, ms, err = c.Watermark(16)
	if err != nil || wm != 11 || len(ms) != 1 {
		t.Fatalf("WM 16: wm=%v ms=%v err=%v", wm, ms, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func TestDaemonBadLatenessAndWindow(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-lateness", "-2"},
		{"-window", "nope"},
		{"-window", "tumbling:0"},
		{"-window", "bogus:5"},
		{"-window", "sliding:10", "-index", "L2AP"},
		{"-window", "tumbling:10", "-index", "NOPE"},
	} {
		if err := run(args, &buf, nil); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestDaemonShardFlags: -shard validation, and a shard worker daemon
// end-to-end: it accepts the cluster PUT/ADV commands and only indexes
// its owned dimensions.
func TestDaemonShardFlags(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-shard", "2"},
		{"-shard", "x/2"},
		{"-shard", "2/2"},
		{"-shard", "-1/2"},
		{"-shard", "0/0"},
		{"-shard", "0/2", "-window", "tumbling:10"},
		{"-shard", "0/2", "-lateness", "5"},
	} {
		if err := run(args, &buf, nil); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-quiet", "-shard", "0/2"}, &buf, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	// Dims 2 and 4 belong to shard 0 of 2; the worker indexes and matches.
	v := vec.MustNew([]uint32{2, 4}, []float64{1, 1}).Normalize()
	if _, err := c.Put(0, apss.SideA, 0, v); err != nil {
		t.Fatal(err)
	}
	ms, err := c.Put(1, apss.SideA, 1, v)
	if err != nil || len(ms) != 1 || ms[0].X != 1 || ms[0].Y != 0 {
		t.Fatalf("shard worker match: %v %v", ms, err)
	}
	// ADV moves the worker clock: an earlier PUT is now rejected.
	if _, err := c.Advance(50); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(2, apss.SideA, 10, v); err == nil {
		t.Fatal("PUT behind ADV barrier accepted")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}
