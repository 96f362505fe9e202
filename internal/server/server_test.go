package server

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/leakcheck"
	"sssj/internal/vec"
)

// TestMain fails the package if any test leaves a goroutine running:
// every server, session pipeline and connection must wind down.
func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }

// testServer is a running server plus the address it listens on.
type testServer struct {
	*Server
	addr string
}

// startServer spins up a server on a random port.
func startServer(t *testing.T, cfg Config) testServer {
	t.Helper()
	if cfg.Params == (apss.Params{}) {
		cfg.Params = apss.Params{Theta: 0.7, Lambda: 0.1}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := s.Serve(ln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { s.Close() })
	return testServer{Server: s, addr: ln.Addr().String()}
}

func dialT(t *testing.T, s testServer) *Client {
	t.Helper()
	c, err := Dial(s.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestAddAndMatch(t *testing.T) {
	s := startServer(t, Config{})
	c := dialT(t, s)

	v := vec.MustNew([]uint32{1, 2}, []float64{1, 1}).Normalize()
	id0, ms, err := c.Add(0, v)
	if err != nil || id0 != 0 || len(ms) != 0 {
		t.Fatalf("first add: id=%d ms=%v err=%v", id0, ms, err)
	}
	id1, ms, err := c.Add(1, v)
	if err != nil || id1 != 1 {
		t.Fatalf("second add: id=%d err=%v", id1, err)
	}
	if len(ms) != 1 || ms[0].X != 1 || ms[0].Y != 0 {
		t.Fatalf("match = %+v", ms)
	}
	if ms[0].Sim < 0.7 || ms[0].DT != 1 {
		t.Fatalf("match fields = %+v", ms[0])
	}
}

func TestCrossClientMatches(t *testing.T) {
	// Two clients feed the same stream; the pair spans connections.
	s := startServer(t, Config{})
	c1 := dialT(t, s)
	c2 := dialT(t, s)
	v := vec.MustNew([]uint32{7}, []float64{1})
	if _, _, err := c1.Add(10, v); err != nil {
		t.Fatal(err)
	}
	_, ms, err := c2.Add(10.5, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("cross-client match missing: %v", ms)
	}
}

func TestAddNowAssignsServerClock(t *testing.T) {
	clock := 0.0
	s := startServer(t, Config{Now: func() float64 { clock += 0.25; return clock }})
	c := dialT(t, s)
	v := vec.MustNew([]uint32{3}, []float64{1})
	if _, _, err := c.AddNow(v); err != nil {
		t.Fatal(err)
	}
	_, ms, err := c.AddNow(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].DT != 0.25 {
		t.Fatalf("server-stamped match = %+v", ms)
	}
}

func TestOutOfOrderRejectedAndRecoverable(t *testing.T) {
	s := startServer(t, Config{})
	c := dialT(t, s)
	v := vec.MustNew([]uint32{1}, []float64{1})
	if _, _, err := c.Add(5, v); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Add(4, v); err == nil {
		t.Fatal("out-of-order accepted")
	}
	// The connection (and the joiner) survive the rejected item.
	if _, _, err := c.Add(6, v); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
}

func TestMalformedInputs(t *testing.T) {
	s := startServer(t, Config{})
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(line string) string {
		fmt.Fprintln(conn, line)
		resp, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read after %q: %v", line, err)
		}
		return strings.TrimSpace(resp)
	}
	for _, tc := range []string{
		"ADD",
		"ADD notanumber 1:1",
		"ADD 1 garbage",
		"ADD 1 1:",
		"ADD 1 :1",
		"BOGUS command",
	} {
		if resp := send(tc); !strings.HasPrefix(resp, "ERR") {
			t.Fatalf("%q got %q, want ERR", tc, resp)
		}
	}
	if resp := send("PING"); resp != "PONG" {
		t.Fatalf("ping got %q", resp)
	}
	if resp := send("QUIT"); resp != "BYE" {
		t.Fatalf("quit got %q", resp)
	}
}

func TestStatsAndSize(t *testing.T) {
	s := startServer(t, Config{})
	c := dialT(t, s)
	v := vec.MustNew([]uint32{2, 5}, []float64{1, 2}).Normalize()
	if _, _, err := c.Add(0, v); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil || !strings.Contains(st, "items=1") {
		t.Fatalf("stats = %q err=%v", st, err)
	}
	sz, err := c.Size()
	if err != nil || !strings.Contains(sz, "entries=") {
		t.Fatalf("size = %q err=%v", sz, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	// Many goroutines hammer ADDNOW concurrently; the shared joiner must
	// stay consistent and assign unique IDs.
	s := startServer(t, Config{})
	const clients = 8
	const perClient = 50
	var wg sync.WaitGroup
	ids := make(chan uint64, clients*perClient)
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(s.addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			v := vec.MustNew([]uint32{uint32(g + 1)}, []float64{1})
			for i := 0; i < perClient; i++ {
				id, _, err := c.AddNow(v)
				if err != nil {
					errs <- err
					return
				}
				ids <- id
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	n := 0
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
		n++
	}
	if n != clients*perClient {
		t.Fatalf("processed %d items", n)
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := New(Config{Params: apss.Params{Theta: 0, Lambda: 1}}); err == nil {
		t.Fatal("bad params accepted")
	}
}

// TestPipelineOrderingPerClient: responses come back in submission
// order with strictly increasing IDs for a client that interleaves its
// adds with other clients' traffic.
func TestPipelineOrderingPerClient(t *testing.T) {
	s := startServer(t, Config{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // background traffic on a second connection
		defer wg.Done()
		c, err := Dial(s.addr)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		v := vec.MustNew([]uint32{99}, []float64{1})
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := c.AddNow(v); err != nil {
				return
			}
		}
	}()
	c := dialT(t, s)
	last := uint64(0)
	v := vec.MustNew([]uint32{7}, []float64{1})
	for i := 0; i < 200; i++ {
		id, _, err := c.AddNow(v)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && id <= last {
			t.Fatalf("ids not increasing for one client: %d after %d", id, last)
		}
		last = id
	}
	close(stop)
	wg.Wait()
}

// TestStatsDuringTraffic: STATS and SIZE flow through the ingest
// pipeline, so they are consistent snapshots even under concurrent adds.
func TestStatsDuringTraffic(t *testing.T) {
	s := startServer(t, Config{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(s.addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			v := vec.MustNew([]uint32{uint32(g)}, []float64{1})
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := c.AddNow(v); err != nil {
					return
				}
			}
		}(g)
	}
	c := dialT(t, s)
	for i := 0; i < 20; i++ {
		if _, err := c.Stats(); err != nil {
			t.Fatal(err)
		}
		info, err := c.Size()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(info, "entries=") {
			t.Fatalf("unexpected SIZE payload %q", info)
		}
	}
	close(stop)
	wg.Wait()
}

// TestForeignSideFraming covers the SIDE command: a foreign-join server
// matches only cross-side items, connections default to side A, and a
// self-join server rejects SIDE outright.
func TestForeignSideFraming(t *testing.T) {
	s := startServer(t, Config{Foreign: true})
	a := dialT(t, s) // stays on the default side A
	b := dialT(t, s)
	if err := b.Side(apss.SideB); err != nil {
		t.Fatal(err)
	}

	v := vec.MustNew([]uint32{1, 2}, []float64{1, 1}).Normalize()
	idA, ms, err := a.Add(0, v)
	if err != nil || len(ms) != 0 {
		t.Fatalf("first add: id=%d ms=%v err=%v", idA, ms, err)
	}
	// A second side-A item: identical vector, but same side — no match.
	if _, ms, err = a.Add(0.1, v); err != nil || len(ms) != 0 {
		t.Fatalf("same-side add matched: ms=%v err=%v", ms, err)
	}
	// A side-B item matches both side-A items.
	_, ms, err = b.Add(0.2, v)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("cross-side add matched %d items, want 2: %v", len(ms), ms)
	}
	// Switching a connection's side applies to its subsequent adds.
	if err := a.Side(apss.SideB); err != nil {
		t.Fatal(err)
	}
	if _, ms, err = a.Add(0.3, v); err != nil || len(ms) != 2 {
		t.Fatalf("re-sided add: ms=%v err=%v (want the 2 side-A items)", ms, err)
	}
}

func TestSideRejectedOnSelfJoinServer(t *testing.T) {
	s := startServer(t, Config{})
	c := dialT(t, s)
	if err := c.Side(apss.SideB); err == nil {
		t.Fatal("SIDE accepted on a self-join server")
	}
	// The connection survives the rejected command.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestLatenessReordersWithinDelta: with Config.Lateness items may
// arrive out of order within δ; the joiner sees them re-sorted, and the
// matches of released items ride on the releasing request's reply.
func TestLatenessReordersWithinDelta(t *testing.T) {
	s := startServer(t, Config{Lateness: 5, Params: apss.Params{Theta: 0.7, Lambda: 0.01}})
	c := dialT(t, s)
	v := vec.MustNew([]uint32{1}, []float64{1})
	if _, ms, err := c.Add(10, v); err != nil || len(ms) != 0 {
		t.Fatalf("t=10: ms=%v err=%v", ms, err)
	}
	// 3 behind the newest time: admissible under δ=5, buffered.
	id, ms, err := c.Add(7, v)
	if err != nil || id != 1 || len(ms) != 0 {
		t.Fatalf("t=7: id=%d ms=%v err=%v", id, ms, err)
	}
	// t=20 pushes the watermark to 15, releasing t=7 (id 1) then t=10
	// (id 0); the pair they form is reported on THIS request.
	id, ms, err = c.Add(20, v)
	if err != nil || id != 2 {
		t.Fatalf("t=20: id=%d err=%v", id, err)
	}
	if len(ms) != 1 || ms[0].X != 0 || ms[0].Y != 1 || ms[0].DT != 3 {
		t.Fatalf("released match = %+v, want X=0 Y=1 DT=3", ms)
	}
}

// TestLatenessRejectsBehindWatermark: an item behind W = maxT − δ gets
// an ERR reply, the connection survives, and STATS counts the drop.
func TestLatenessRejectsBehindWatermark(t *testing.T) {
	s := startServer(t, Config{Lateness: 5, Params: apss.Params{Theta: 0.7, Lambda: 0.01}})
	c := dialT(t, s)
	v := vec.MustNew([]uint32{1}, []float64{1})
	if _, _, err := c.Add(20, v); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Add(14, v); err == nil {
		t.Fatal("item behind the watermark accepted")
	}
	if _, _, err := c.Add(16, v); err != nil {
		t.Fatalf("admissible item after a late one: %v", err)
	}
	st, err := c.Stats()
	if err != nil || !strings.Contains(st, "late=1") {
		t.Fatalf("stats = %q err=%v, want late=1", st, err)
	}
}

// TestWatermarkHeartbeat: WM advances the watermark without an item,
// releasing buffered items (their matches ride on the WM reply), and
// answers with the new watermark. Stale heartbeats are no-ops.
func TestWatermarkHeartbeat(t *testing.T) {
	s := startServer(t, Config{Lateness: 5, Params: apss.Params{Theta: 0.7, Lambda: 0.01}})
	c := dialT(t, s)
	v := vec.MustNew([]uint32{1}, []float64{1})
	if _, _, err := c.Add(10, v); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Add(12, v); err != nil {
		t.Fatal(err)
	}
	wm, ms, err := c.Watermark(20)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 15 {
		t.Fatalf("watermark = %v, want 15", wm)
	}
	if len(ms) != 1 || ms[0].DT != 2 {
		t.Fatalf("released matches = %+v, want one with DT=2", ms)
	}
	// Stale heartbeat: clocks only move forward.
	wm, ms, err = c.Watermark(3)
	if err != nil || wm != 15 || len(ms) != 0 {
		t.Fatalf("stale WM: wm=%v ms=%v err=%v", wm, ms, err)
	}
	// The heartbeat floor applies to admission like any clock advance.
	if _, _, err := c.Add(14, v); err == nil {
		t.Fatal("item behind the heartbeat watermark accepted")
	}
}

// TestWatermarkForeignMinOfSides: on a foreign-join server the
// watermark is min over both sides' clocks − δ, −Inf until both sides
// are seen; a WM heartbeat advances both sides at once.
func TestWatermarkForeignMinOfSides(t *testing.T) {
	s := startServer(t, Config{Foreign: true, Lateness: 2, Params: apss.Params{Theta: 0.7, Lambda: 0.01}})
	a := dialT(t, s)
	v := vec.MustNew([]uint32{1}, []float64{1})
	if _, ms, err := a.Add(10, v); err != nil || len(ms) != 0 {
		t.Fatalf("side-A add: ms=%v err=%v", ms, err)
	}
	wm, ms, err := a.Watermark(10)
	if err != nil || len(ms) != 0 {
		t.Fatalf("WM 10: ms=%v err=%v", ms, err)
	}
	if wm != 8 {
		t.Fatalf("watermark = %v, want 8 (both clocks at 10, δ=2)", wm)
	}
	// Advancing past the buffered item releases it; being alone on its
	// side it matches nothing.
	wm, ms, err = a.Watermark(15)
	if err != nil || wm != 13 || len(ms) != 0 {
		t.Fatalf("WM 15: wm=%v ms=%v err=%v", wm, ms, err)
	}
	// A side-B item near the released side-A one pairs with it.
	b := dialT(t, s)
	if err := b.Side(apss.SideB); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Add(13.5, v); err != nil {
		t.Fatal(err)
	}
	wm, ms, err = b.Watermark(20)
	if err != nil || wm != 18 {
		t.Fatalf("WM 20: wm=%v err=%v", wm, err)
	}
	if len(ms) != 1 {
		t.Fatalf("cross-side match missing after release: %v", ms)
	}
}

// TestWatermarkRequiresLateness: WM is rejected on a strict-order
// server, and the connection survives.
func TestWatermarkRequiresLateness(t *testing.T) {
	s := startServer(t, Config{})
	c := dialT(t, s)
	if _, _, err := c.Watermark(10); err == nil {
		t.Fatal("WM accepted on a strict-order server")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestServerRejectsBadLateness: negative or non-finite δ is a
// configuration error.
func TestServerRejectsBadLateness(t *testing.T) {
	for _, d := range []float64{-1, math.Inf(1), math.NaN()} {
		if _, err := New(Config{Params: apss.Params{Theta: 0.7, Lambda: 0.1}, Lateness: d}); err == nil {
			t.Fatalf("Lateness=%v accepted", d)
		}
	}
}
