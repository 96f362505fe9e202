package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// textPeer speaks the line protocol over a raw socket, the way nc does.
type textPeer struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialText(t *testing.T, s testServer) *textPeer {
	t.Helper()
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &textPeer{t: t, conn: conn, r: bufio.NewReader(conn)}
}

// do sends one line and returns the MATCH lines and the closing line of
// its reply.
func (p *textPeer) do(line string) (ms []apss.Match, final string) {
	p.t.Helper()
	if _, err := fmt.Fprintln(p.conn, line); err != nil {
		p.t.Fatal(err)
	}
	for {
		resp, err := p.r.ReadString('\n')
		if err != nil {
			p.t.Fatalf("read after %q: %v", line, err)
		}
		resp = strings.TrimSpace(resp)
		if !strings.HasPrefix(resp, "MATCH ") {
			return ms, resp
		}
		m, err := parseMatchLine(resp)
		if err != nil {
			p.t.Fatal(err)
		}
		ms = append(ms, m)
	}
}

// coordText renders dims/vals as the protocol's dim:val tokens, in the
// order given and at round-trip precision.
func coordText(dims []uint32, vals []float64) string {
	var sb strings.Builder
	for i, d := range dims {
		fmt.Fprintf(&sb, " %d:%s", d, strconv.FormatFloat(vals[i], 'g', -1, 64))
	}
	return sb.String()
}

// sameMatches compares two replies: same pairs in the same order, sims
// within eps (0 demands equal bits).
func sameMatches(a, b []apss.Match, eps float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d matches against %d", len(a), len(b))
	}
	for i := range a {
		if a[i].X != b[i].X || a[i].Y != b[i].Y {
			return fmt.Errorf("match %d: pair (%d,%d) against (%d,%d)", i, a[i].X, a[i].Y, b[i].X, b[i].Y)
		}
		for _, f := range [][2]float64{{a[i].Sim, b[i].Sim}, {a[i].Dot, b[i].Dot}, {a[i].DT, b[i].DT}} {
			if eps == 0 && math.Float64bits(f[0]) != math.Float64bits(f[1]) || math.Abs(f[0]-f[1]) > eps {
				return fmt.Errorf("match %d (%d,%d): %v against %v", i, a[i].X, a[i].Y, a[i], b[i])
			}
		}
	}
	return nil
}

// TestFrameTextParity feeds one stream to two sessions of the same
// options — through text lines on a raw socket and through the Client's
// frames — and demands the same IDs, pairs and refusals from both, on a
// self-join, a foreign and a bounded-lateness session. ADD carries raw,
// partly unsorted and duplicate-dimension vectors (the vec.New fallback
// of the frame decoder); PUT carries normalized ones and must agree to
// the bit, ADD to the 1e-6 its text MATCH lines are rounded to.
func TestFrameTextParity(t *testing.T) {
	for _, mode := range []struct {
		name, opts string
		foreign    bool
		lateness   float64
	}{
		{"self", "", false, 0},
		{"foreign", "join=foreign", true, 0},
		{"lateness", "lateness=2", false, 2},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s := startServer(t, Config{Params: apss.Params{Theta: 0.5, Lambda: 0.1}})
			txt, cl := dialText(t, s), dialT(t, s)
			if _, final := txt.do(strings.TrimSpace("SESSION text theta=0.5 lambda=0.1 " + mode.opts)); final != "SESSION text" {
				t.Fatal(final)
			}
			var opts []string
			if mode.opts != "" {
				opts = []string{mode.opts}
			}
			if err := cl.Session("frame", append(opts, "theta=0.5", "lambda=0.1")...); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			clock, side, pairs := 0.0, apss.SideA, 0
			for i := 0; i < 300; i++ {
				// A raw vector over few dimensions: repeats happen, order is random.
				n := 1 + rng.Intn(5)
				dims, vals := make([]uint32, n), make([]float64, n)
				for j := range dims {
					dims[j], vals[j] = uint32(rng.Intn(10)), 0.1+rng.Float64()
				}
				clock += rng.Float64() / 2
				ts := clock
				if mode.lateness > 0 {
					ts -= rng.Float64() * 3 // some fall behind the watermark: both must refuse them
				}
				if mode.foreign && rng.Intn(3) == 0 {
					side = side.Other()
					if _, final := txt.do("SIDE " + side.String()); final != "SIDE "+side.String() {
						t.Fatal(final)
					}
					if err := cl.Side(side); err != nil {
						t.Fatal(err)
					}
				}
				put := mode.lateness == 0 && i%3 == 2
				var (
					tms, fms []apss.Match
					final    string
					id       uint64
					err      error
				)
				if put {
					v := vec.MustNew(dims, vals).Normalize()
					tms, final = txt.do(fmt.Sprintf("PUT %d %v %s%s", 1000+i, side, strconv.FormatFloat(ts, 'g', -1, 64), coordText(v.Dims, v.Vals)))
					id = uint64(1000 + i)
					fms, err = cl.Put(id, side, ts, v)
				} else {
					tms, final = txt.do("ADD " + strconv.FormatFloat(ts, 'g', -1, 64) + coordText(dims, vals))
					id, fms, err = cl.Add(ts, vec.Vector{Dims: dims, Vals: vals})
				}
				switch {
				case err != nil:
					if final != "ERR "+err.Error() {
						t.Fatalf("item %d: text %q, frame error %q", i, final, err)
					}
				case final != fmt.Sprintf("OK %d", id):
					t.Fatalf("item %d: text %q, frame OK %d", i, final, id)
				}
				eps := 1e-6
				if put {
					eps = 0
				}
				if err := sameMatches(tms, fms, eps); err != nil {
					t.Fatalf("item %d (put=%v): %v", i, put, err)
				}
				pairs += len(fms)
			}
			if mode.lateness > 0 {
				tms, _ := txt.do("WM 1e9")
				_, fms, err := cl.Watermark(1e9)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameMatches(tms, fms, 1e-6); err != nil {
					t.Fatalf("drain: %v", err)
				}
				pairs += len(fms)
				// PUT belongs to the other tier, and says so in both forms.
				_, final := txt.do("PUT 1 A 1 1:1")
				if _, err := cl.Put(1, apss.SideA, 1, vec.MustNew([]uint32{1}, []float64{1})); err == nil || final != "ERR "+err.Error() {
					t.Fatalf("PUT on a lateness session: text %q, frame %v", final, err)
				}
			}
			if pairs == 0 {
				t.Fatal("the stream produced no pairs; the comparison is vacuous")
			}
		})
	}
}

// nopJoiner accepts everything and reports nothing: what is left of a
// round trip is the protocol.
type nopJoiner struct{}

func (nopJoiner) Add(stream.Item) ([]apss.Match, error) { return nil, nil }
func (nopJoiner) Flush() ([]apss.Match, error)          { return nil, nil }

func nopConfig() Config {
	return Config{
		Params:    apss.Params{Theta: 0.7, Lambda: 0.1},
		NewJoiner: func(apss.Params, *metrics.Counters) (core.Joiner, error) { return nopJoiner{}, nil },
	}
}

// TestFrameAllocs pins what the frames were introduced for: encoding
// allocates nothing, the server's whole handling of a canonical vector
// allocates its dims and vals and nothing else, and a client reading a
// reply without matches allocates nothing.
func TestFrameAllocs(t *testing.T) {
	v := vec.MustNew([]uint32{1, 4, 9, 16}, []float64{0.5, 0.5, 0.5, 0.5})
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() { buf = appendFrame(buf[:0], frameAdd, apss.SideA, 0, 1, v) }); n != 0 {
		t.Errorf("encoding a frame allocates %v times", n)
	}

	srv, err := New(nopConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st := newConnState(srv.def, bufio.NewWriter(io.Discard))
	src := bytes.NewReader(nil)
	r := bufio.NewReaderSize(src, connReadBuf)
	frame := appendFrame(nil, frameAddNow, apss.SideA, 0, 0, v)
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(frame)
		r.Reset(src)
		if st.serveFrame(r) {
			t.Fatal("a well-formed frame closed the connection")
		}
	}); n > 2 {
		t.Errorf("serving a canonical frame allocates %v times, want at most 2 (dims, vals)", n)
	}

	c := &Client{r: bufio.NewReader(src)}
	ok := binary.LittleEndian.AppendUint64([]byte{tagOK}, 7)
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(ok)
		c.r.Reset(src)
		c.mu.Lock()
		if id, ms, err := c.finishFrame(nil); id != 7 || ms != nil || err != nil {
			t.Fatalf("reply decoded as id=%d ms=%v err=%v", id, ms, err)
		}
	}); n != 0 {
		t.Errorf("reading a reply without matches allocates %v times", n)
	}
}

// rawFrame builds a frame field by field, valid or not.
func rawFrame(kind, side byte, id uint64, t float64, nnz uint32, dims []uint32, vals []float64) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{frameMarker, kind, side}, id)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t))
	b = binary.LittleEndian.AppendUint32(b, nnz)
	for i := range dims {
		b = binary.LittleEndian.AppendUint32(b, dims[i])
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(vals[i]))
	}
	return b
}

// TestFrameRejections: every frame the server will not ingest gets a
// typed ERR — worded as its text verb words it — and the connection
// survives exactly when the next request can still be found.
func TestFrameRejections(t *testing.T) {
	s := startServer(t, Config{})
	one, val := []uint32{3}, []float64{1}
	for _, tc := range []struct {
		name   string
		frame  []byte
		want   string
		closes bool
	}{
		{"unknown kind", rawFrame('Z', 'A', 0, 1, 1, one, val), "unknown frame kind", true},
		{"nnz over the cap", rawFrame(frameAdd, 'A', 0, 1, MaxFrameNNZ+1, nil, nil), "exceeds", true},
		{"bad side", rawFrame(framePut, 'C', 5, 1, 1, one, val), `bad side "C", want A or B`, false},
		{"side B on a self-join session", rawFrame(framePut, 'B', 5, 1, 1, one, val), "side B requires a foreign-join session", false},
		{"NaN timestamp", rawFrame(frameAdd, 'A', 0, math.NaN(), 1, one, val), `bad timestamp "NaN"`, false},
		{"infinite timestamp", rawFrame(framePut, 'A', 5, math.Inf(1), 1, one, val), `bad timestamp "+Inf"`, false},
		{"NaN value", rawFrame(frameAdd, 'A', 0, 1, 1, one, []float64{math.NaN()}), vec.ErrZeroValue.Error(), false},
		{"infinite value", rawFrame(framePut, 'A', 5, 1, 1, one, []float64{math.Inf(-1)}), vec.ErrZeroValue.Error(), false},
	} {
		conn, err := net.Dial("tcp", s.addr)
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn)
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		c.mu.Lock()
		if _, err := conn.Write(tc.frame); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.finishFrame(nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: reply %v, want an error containing %q", tc.name, err, tc.want)
		}
		if err := c.Ping(); (err != nil) != tc.closes {
			t.Errorf("%s: ping afterwards: %v, connection should close: %v", tc.name, err, tc.closes)
		}
		conn.Close()
	}
	// The text verbs word the shared refusals identically.
	txt := dialText(t, s)
	for line, want := range map[string]string{
		"ADD NaN 3:1":      `ERR bad timestamp "NaN"`,
		"PUT 5 A +Inf 3:1": `ERR bad timestamp "+Inf"`,
		"PUT 5 C 1 3:1":    `ERR bad side "C", want A or B`,
		"ADD 1 3:NaN":      "ERR " + vec.ErrZeroValue.Error(),
	} {
		if _, final := txt.do(line); final != want {
			t.Errorf("%q answered %q, want %q", line, final, want)
		}
	}
	// A frame cut short by the end of the input is a clean close: no
	// reply, no wait for the missing bytes.
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	conn.Write(rawFrame(frameAdd, 'A', 0, 1, 1000, one, val))
	conn.(*net.TCPConn).CloseWrite()
	if rest, err := io.ReadAll(conn); err != nil || len(rest) != 0 {
		t.Errorf("truncated frame: read %q, %v; want a silent close", rest, err)
	}
}

// TestNonFiniteTimesRejected: ADV, WM and ADOPT refuse NaN and ±Inf as
// ADD does, and the session takes the next finite item. An accepted
// +Inf would expire the whole window and refuse every later item as
// out of order. The refused ADOPT still consumes its counters line and
// payload, so the connection stays line-aligned.
func TestNonFiniteTimesRejected(t *testing.T) {
	s := startServer(t, Config{})
	txt := dialText(t, s)
	txt.conn.SetDeadline(time.Now().Add(10 * time.Second)) // an accepted ADOPT would wait for its payload
	for _, step := range []struct{ line, want string }{
		{"ADD 1 3:1", "OK 0"},
		{"ADV +Inf", `ERR bad timestamp "+Inf"`},
		{"ADV NaN", `ERR bad timestamp "NaN"`},
		{"ADV -Inf", `ERR bad timestamp "-Inf"`},
		{"ADD 2 3:1", "OK 1"},
		// A whole MIGRATE message: header, counters line and a 5-byte
		// payload that reads as a command if the refusal skips it.
		{"ADOPT moved 0 +Inf 1 5\n{}\nPING", `ERR bad lastT "+Inf"`},
		{"ADD 3 3:1", "OK 2"},
		{"SESSION late theta=0.5 lambda=0.1 lateness=2", "SESSION late"},
		{"WM +Inf", `ERR bad timestamp "+Inf"`},
		{"WM NaN", `ERR bad timestamp "NaN"`},
		{"ADD 4 3:1", "OK 0"},
		{"WM 10", "WM 8"},
	} {
		if _, final := txt.do(step.line); final != step.want {
			t.Fatalf("%q answered %q, want %q", step.line, final, step.want)
		}
	}
	if ms, final := txt.do("ADD 2.5 3:1"); !strings.HasPrefix(final, "ERR") || len(ms) != 0 {
		t.Fatalf("item behind the finite watermark: %v %q", ms, final)
	}
}

// TestLineTooLong: both ends bound the text lines they read. The server
// answers an oversized line with a typed ERR without buffering it and
// stays aligned on the next one; the client returns ErrLineTooLong.
func TestLineTooLong(t *testing.T) {
	s := startServer(t, Config{})
	txt := dialText(t, s)
	txt.conn.SetDeadline(time.Now().Add(10 * time.Second))
	long := strings.Repeat("x", maxLineBytes) // one over, with its newline
	if _, final := txt.do(long); final != "ERR line too long" {
		t.Fatalf("oversized line answered %q", final)
	}
	if _, final := txt.do("PING"); final != "PONG" {
		t.Fatalf("after an oversized line PING answered %q", final)
	}
	// A line of exactly the bound is still a line.
	if _, final := txt.do(long[1:]); !strings.HasPrefix(final, "ERR unknown command") {
		t.Fatalf("a line at the bound answered %.40q", final)
	}

	// A mute peer that answers the first PING with an oversized line.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for _, reply := range []string{long, "PONG"} {
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
			fmt.Fprintln(conn, reply)
		}
		io.Copy(io.Discard, r)
	}()
	c, err := Dialer{IOTimeout: 10 * time.Second}.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("oversized reply: err=%v, want ErrLineTooLong", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("the connection lost its alignment after an oversized reply: %v", err)
	}
}

// FuzzItemFrame throws arbitrary bytes behind a frame marker at a live
// session. Whatever they are, the first reply must be a well-formed
// frame reply — matches closed by OK, or a typed BUSY/MOVED/ERR — or a
// clean close; the connection must drain to its end once the input
// stops, well inside the IO deadline; the server may not allocate beyond
// what the bytes that arrived justify (a header announcing 65 536
// coordinates it does not send reserves nothing); and the server must
// still answer afterwards.
func FuzzItemFrame(f *testing.F) {
	// The well-formed frames are seeded here; the hostile ones — lying and
	// oversized nnz, unknown kind, bad side, non-finite time and value,
	// unsorted and cancelling coordinates, frames cut short, frames followed
	// by text and by more frames — are testdata/fuzz/FuzzItemFrame.
	v := vec.MustNew([]uint32{1, 4, 9}, []float64{0.5, 0.5, 0.7}).Normalize()
	f.Add(appendFrame(nil, frameAdd, apss.SideA, 0, 1, v)[1:])
	f.Add(appendFrame(nil, frameAddNow, apss.SideA, 0, 0, v)[1:])
	f.Add(appendFrame(nil, framePut, apss.SideA, 9, 2, v)[1:])

	srv, err := New(Config{Params: apss.Params{Theta: 0.7, Lambda: 0.1}})
	if err != nil {
		f.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	go srv.Serve(ln)
	f.Cleanup(func() { srv.Close() })
	addr := ln.Addr().String()

	f.Fuzz(func(t *testing.T, data []byte) {
		const ioDeadline = 5 * time.Second
		var before, after runtime.MemStats
		// TotalAlloc is process-wide: measure only once the previous
		// input's probe has been served, and read it again only once this
		// input's connection is gone, so nothing else is counted.
		awaitNoConns(t, srv, ioDeadline)
		runtime.ReadMemStats(&before)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(ioDeadline))
		if _, err := conn.Write(append([]byte{frameMarker}, data...)); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		c := NewClient(conn)
		c.mu.Lock()
		_, _, err = c.finishFrame(nil)
		var busy *BusyError
		var moved *MovedError
		var netErr net.Error
		switch {
		case err == nil, errors.As(err, &busy), errors.As(err, &moved):
		case errors.As(err, &netErr) && netErr.Timeout():
			t.Fatalf("no reply within the IO deadline: %v", err)
		case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
			// A clean close — but only a frame the input cut short earns one
			// without a reply.
			if len(data) >= frameHeaderSize-1 {
				_, nnz := stream.RecordHeader(data[10:])
				if k := data[0]; (k == frameAdd || k == frameAddNow || k == framePut) &&
					nnz <= MaxFrameNNZ && len(data)-(frameHeaderSize-1) >= int(nnz)*stream.CoordSize {
					t.Fatalf("a complete frame was closed on without a reply: %v", err)
				}
			}
		case strings.HasPrefix(err.Error(), "server: unexpected reply tag"):
			t.Fatalf("malformed reply: %v", err)
		}
		// Whatever follows the first frame is served as further requests;
		// with the input closed the server must run out of them and hang up.
		if _, err := io.Copy(io.Discard, c.r); err != nil {
			t.Fatalf("connection did not drain: %v", err)
		}
		awaitNoConns(t, srv, ioDeadline)
		runtime.ReadMemStats(&after)
		if grew, allowed := after.TotalAlloc-before.TotalAlloc, uint64(512<<10+64*len(data)); grew > allowed {
			t.Fatalf("%d input bytes cost %d bytes of allocation, over %d", len(data), grew, allowed)
		}
		probe, err := Dialer{IOTimeout: ioDeadline}.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer probe.Close()
		if err := probe.Ping(); err != nil {
			t.Fatalf("server stopped answering: %v", err)
		}
	})
}

// awaitNoConns waits until srv holds no open connection: every handler
// has returned.
func awaitNoConns(t *testing.T, srv *Server, timeout time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(timeout); ; time.Sleep(time.Millisecond) {
		srv.lnMu.Lock()
		n := len(srv.conns)
		srv.lnMu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still open after %v", n, timeout)
		}
	}
}

// BenchmarkItemRoundTrip is one Client.Add against a live session over
// loopback — the unit daemon-loopback repeats — so that allocs/op and
// ns/op of the wire path show without running bench/. With the joiner
// stubbed out, what is measured is the protocol and the sockets.
func BenchmarkItemRoundTrip(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"protocol", nopConfig()},
		{"STR-L2", Config{Params: apss.Params{Theta: 0.7, Lambda: 0.1}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			srv, err := New(bc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Close()
			c, err := Dial(ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			items := randomItems(5, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := items[i%len(items)]
				// Times only grow: pass k of the block is shifted past pass k-1.
				if _, _, err := c.Add(it.Time+float64(i/len(items))*1000, it.Vec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
