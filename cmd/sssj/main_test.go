package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"strings"
	"testing"

	"sssj"
	"sssj/internal/apss"
	"sssj/internal/datagen"
	"sssj/internal/server"
)

// startDaemon boots an in-process multi-tenant server for client-mode
// tests and returns its address.
func startDaemon(t *testing.T) string {
	t.Helper()
	srv, err := server.New(server.Config{Params: apss.Params{Theta: 0.7, Lambda: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func TestRunTextInput(t *testing.T) {
	in := strings.NewReader("0 1:1\n0.5 1:1\n")
	var out, errw bytes.Buffer
	err := run([]string{"-theta", "0.7", "-lambda", "0.1"}, in, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "1 0 ") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestRunBinaryInputAllCombos(t *testing.T) {
	items := datagen.RCV1Profile().Scaled(0.02).Generate(1)
	var bin bytes.Buffer
	if err := sssj.WriteBinary(&bin, items); err != nil {
		t.Fatal(err)
	}
	combos := [][2]string{
		{"STR", "L2"}, {"STR", "INV"}, {"STR", "L2AP"},
		{"MB", "L2"}, {"MB", "INV"}, {"MB", "L2AP"}, {"MB", "AP"},
	}
	var counts []string
	for _, c := range combos {
		var out, errw bytes.Buffer
		err := run([]string{
			"-theta", "0.6", "-lambda", "0.05",
			"-framework", c[0], "-index", c[1],
			"-format", "binary", "-quiet", "-stats",
		}, bytes.NewReader(bin.Bytes()), &out, &errw)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		counts = append(counts, strings.TrimSpace(out.String()))
		if !strings.Contains(errw.String(), "items=") {
			t.Fatalf("%v: stats missing", c)
		}
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("match counts diverge across combos: %v", counts)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	cases := [][]string{
		{"-framework", "NOPE"},
		{"-index", "NOPE"},
		{"-format", "NOPE"},
		{"-theta", "0"},
		{"-framework", "STR", "-index", "AP"},
		{"-input", "/nonexistent/file"},
	}
	for _, args := range cases {
		if err := run(args, strings.NewReader(""), &out, &errw); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestRunMalformedInput(t *testing.T) {
	var out, errw bytes.Buffer
	err := run(nil, strings.NewReader("garbage line\n"), &out, &errw)
	if err == nil {
		t.Fatal("malformed input accepted")
	}
}

// TestRunForeignJoin drives -join foreign over two files and checks that
// only cross-stream pairs are printed.
func TestRunForeignJoin(t *testing.T) {
	dir := t.TempDir()
	// Side A: two identical items (a same-side pair a self-join would
	// report); side B: one item between them.
	a := dir + "/a.txt"
	b := dir + "/b.txt"
	if err := os.WriteFile(a, []byte("0 1:1\n0.4 1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("0.2 1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	err := run([]string{"-theta", "0.7", "-lambda", "0.1",
		"-join", "foreign", "-input", a, "-inputB", b}, strings.NewReader(""), &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// Merged stream: id0 = A@0, id1 = B@0.2, id2 = A@0.4. Cross pairs:
	// (1,0) and (2,1); the same-side pair (2,0) must be absent.
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "1 0 ") || !strings.HasPrefix(lines[1], "2 1 ") {
		t.Fatalf("output = %q", out.String())
	}

	// Flag validation.
	if err := run([]string{"-join", "foreign"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("foreign without -inputB accepted")
	}
	if err := run([]string{"-join", "foreign", "-inputB", "-"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("both sides reading stdin accepted")
	}
	if err := run([]string{"-inputB", b}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("-inputB without -join foreign accepted")
	}
	if err := run([]string{"-join", "bogus"}, strings.NewReader(""), &out, &errw); err == nil {
		t.Fatal("bogus join mode accepted")
	}
}

// TestRunClientMode: -server streams through a sssjd session and prints
// the same matches a local run would; a second run attaching to the
// same session continues its ID numbering.
func TestRunClientMode(t *testing.T) {
	addr := startDaemon(t)
	args := []string{"-theta", "0.7", "-lambda", "0.1", "-server", addr, "-session", "cli"}

	var local, remote, errw bytes.Buffer
	const input = "0 1:1\n0.5 1:1\n"
	if err := run([]string{"-theta", "0.7", "-lambda", "0.1"},
		strings.NewReader(input), &local, &errw); err != nil {
		t.Fatal(err)
	}
	if err := run(args, strings.NewReader(input), &remote, &errw); err != nil {
		t.Fatal(err)
	}
	if local.String() != remote.String() || !strings.HasPrefix(remote.String(), "1 0 ") {
		t.Fatalf("remote = %q, local = %q", remote.String(), local.String())
	}

	// Second run re-attaches: the session keeps its state, so the new
	// item (id 2) matches both earlier ones.
	remote.Reset()
	errw.Reset()
	if err := run(append(args, "-stats"), strings.NewReader("1 1:1\n"), &remote, &errw); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(remote.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "2 ") || !strings.HasPrefix(lines[1], "2 ") {
		t.Fatalf("re-attach output = %q", remote.String())
	}
	if !strings.Contains(errw.String(), "items=3") {
		t.Fatalf("stats = %q, want items=3", errw.String())
	}

	// Without -session the items land on the daemon's default session.
	remote.Reset()
	if err := run([]string{"-quiet", "-server", addr},
		strings.NewReader(input), &remote, &errw); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(remote.String()); got != "1" {
		t.Fatalf("default-session count = %q, want 1", got)
	}
}

// TestRunClientForeign: -join foreign in client mode switches sides on
// the session and reports only cross-stream pairs.
func TestRunClientForeign(t *testing.T) {
	addr := startDaemon(t)
	dir := t.TempDir()
	a := dir + "/a.txt"
	b := dir + "/b.txt"
	if err := os.WriteFile(a, []byte("0 1:1\n0.4 1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("0.2 1:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	err := run([]string{"-theta", "0.7", "-lambda", "0.1",
		"-join", "foreign", "-input", a, "-inputB", b,
		"-server", addr, "-session", "fk"}, strings.NewReader(""), &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "1 0 ") || !strings.HasPrefix(lines[1], "2 1 ") {
		t.Fatalf("output = %q", out.String())
	}
}

// TestRunClientLateness: a -lateness session buffers the disordered
// stream remotely; the client drains it with a final watermark.
func TestRunClientLateness(t *testing.T) {
	addr := startDaemon(t)
	var out, errw bytes.Buffer
	err := run([]string{"-theta", "0.7", "-lambda", "0.1",
		"-lateness", "1", "-quiet", "-server", addr, "-session", "late"},
		strings.NewReader("0 1:1\n1 1:1\n0.5 1:1\n"), &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "3" {
		t.Fatalf("match count = %q, want 3", got)
	}
}

// TestRunClientRejects: client-mode flag validation and dial failures.
func TestRunClientRejects(t *testing.T) {
	var out, errw bytes.Buffer
	for _, args := range [][]string{
		{"-session", "s"},                             // -session without -server
		{"-server", "x", "-framework", "MB"},          // MB is local-only
		{"-server", "x", "-window", "tumbling:10"},    // windows are local-only
		{"-server", "x", "-lateness", "-1"},           // bad lateness caught locally
		{"-server", "127.0.0.1:1", "-quiet"},          // nothing listening
		{"-server", "127.0.0.1:1", "-session", "s!x"}, // invalid name (dial fails first)
	} {
		if err := run(args, strings.NewReader("0 1:1\n"), &out, &errw); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestRunLateness: -lateness lets a within-δ out-of-order stream join
// as if sorted; without it the disordered item is an error.
func TestRunLateness(t *testing.T) {
	const input = "0 1:1\n1 1:1\n0.5 1:1\n"
	var out, errw bytes.Buffer
	if err := run([]string{"-theta", "0.7", "-lambda", "0.1"},
		strings.NewReader(input), &out, &errw); err == nil {
		t.Fatal("out-of-order input accepted without -lateness")
	}
	out.Reset()
	if err := run([]string{"-theta", "0.7", "-lambda", "0.1", "-lateness", "1", "-quiet"},
		strings.NewReader(input), &out, &errw); err != nil {
		t.Fatal(err)
	}
	// Sorted, the three near-identical items form all 3 pairs.
	if got := strings.TrimSpace(out.String()); got != "3" {
		t.Fatalf("match count = %q, want 3", got)
	}
}

// TestRunWindowModes: -window joins run over the same inputs; tumbling
// pairs only items in one window, sliding only items within SIZE.
func TestRunWindowModes(t *testing.T) {
	const input = "0 1:1\n1 1:1\n12 1:1\n"
	for _, tc := range []struct {
		window string
		count  string
	}{
		{"tumbling:10", "1"}, // windows [0,10) and [10,20): only (1,0)
		{"sliding:10", "1"},  // dt 11 and 12 exceed the window: only (1,0)
	} {
		var out, errw bytes.Buffer
		err := run([]string{"-theta", "0.7", "-window", tc.window, "-quiet"},
			strings.NewReader(input), &out, &errw)
		if err != nil {
			t.Fatalf("%s: %v", tc.window, err)
		}
		if got := strings.TrimSpace(out.String()); got != tc.count {
			t.Fatalf("%s: match count = %q, want %s", tc.window, got, tc.count)
		}
	}
	// Flag validation.
	var out, errw bytes.Buffer
	for _, args := range [][]string{
		{"-window", "nope"},
		{"-window", "tumbling"},
		{"-window", "tumbling:0"},
		{"-window", "sliding:-3"},
		{"-window", "bogus:5"},
		{"-window", "sliding:10", "-index", "L2AP"},
		{"-window", "tumbling:10", "-framework", "MB"},
		{"-lateness", "-1"},
	} {
		if err := run(args, strings.NewReader(""), &out, &errw); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestAppendMatchMatchesFmt: the match writer's bytes are exactly fmt's
// "%d %d %.6f %.6f %.6f\n", on random matches and on the floats where
// formatting has special cases.
func TestAppendMatchMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var ms []sssj.Match
	for range 10000 {
		ms = append(ms, sssj.Match{
			X: r.Uint64() >> uint(r.Intn(64)), Y: r.Uint64() >> uint(r.Intn(64)),
			Sim: r.Float64(), Dot: r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)), DT: r.ExpFloat64() * 100,
		})
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e300, 5e-324, -5e-324, 0.0000005, 0.0000015, 2.5e-7} {
		ms = append(ms, sssj.Match{X: math.MaxUint64, Sim: f, Dot: -f, DT: f})
	}
	var b []byte
	for _, m := range ms {
		b = appendMatch(b[:0], m)
		if want := fmt.Sprintf("%d %d %.6f %.6f %.6f\n", m.X, m.Y, m.Sim, m.Dot, m.DT); string(b) != want {
			t.Fatalf("appendMatch(%+v) = %q, fmt %q", m, b, want)
		}
	}
}
