package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/server"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// TestDispatchFailureLeavesSurvivorsAligned: dispatch writes an item to
// every target before it reads any reply, so when one worker is gone the
// others have a request in flight. Whichever worker dies, the error must
// name it, and every surviving connection must have had its reply
// drained: the next request on it gets its own answer, and its engine
// ingested the item exactly once.
func TestDispatchFailureLeavesSurvivorsAligned(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.1}
	for dead := 0; dead < 2; dead++ {
		l, err := StartLocal(streaming.L2AP, p, LocalOptions{ // L2AP broadcasts: both workers are targets
			Workers: 2,
			Dialer:  server.Dialer{DialTimeout: time.Second, IOTimeout: 2 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		items := genItems(5, 12, false)
		for _, it := range items[:10] {
			if _, err := l.Add(it); err != nil {
				t.Fatal(err)
			}
		}
		l.StopWorker(dead)
		sent := 10
		var werr *WorkerError
		for _, it := range items[10:] {
			sent++
			if _, err := l.Add(it); err != nil {
				if !errors.As(err, &werr) {
					t.Fatalf("want *WorkerError, got %T: %v", err, err)
				}
				break
			}
		}
		if werr == nil || werr.Index != dead {
			t.Fatalf("killed worker %d, got %v", dead, werr)
		}
		alive := l.clients[1-dead]
		if err := alive.Ping(); err != nil {
			t.Fatalf("worker %d's connection after worker %d died: %v", 1-dead, dead, err)
		}
		st, err := alive.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if st.Items != int64(sent) {
			t.Fatalf("surviving worker %d ingested %d items, %d were dispatched", 1-dead, st.Items, sent)
		}
		l.Close()
	}
}

// startWorker serves cfg on a loopback port until the test ends.
func startWorker(t *testing.T, cfg server.Config) string {
	t.Helper()
	srv, err := server.New(cfg)
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

// TestTypedRefusalsThroughCoordinator: a worker's BUSY and MOVED frames
// reach the coordinator's caller as a *WorkerError that still satisfies
// errors.Is(err, server.ErrBusy / server.ErrMoved), and the refused
// request leaves every connection aligned.
func TestTypedRefusalsThroughCoordinator(t *testing.T) {
	p := apss.Params{Theta: 0.6, Lambda: 0.1}
	v := vec.MustNew([]uint32{2, 3}, []float64{1, 1}).Normalize() // one dimension per worker
	dialer := server.Dialer{DialTimeout: time.Second, IOTimeout: 2 * time.Second}

	t.Run("busy", func(t *testing.T) {
		var addrs []string
		for i := 0; i < 2; i++ {
			shard := streaming.Shard{ID: i, N: 2}
			addrs = append(addrs, startWorker(t, server.Config{
				Params:      p,
				EntryBudget: 1, // one live posting entry exhausts the shared budget
				NewJoiner: func(p apss.Params, c *metrics.Counters) (core.Joiner, error) {
					return core.NewSTRFull(streaming.L2, p, streaming.Options{Counters: c, Shard: shard})
				},
			}))
		}
		c, err := Connect(Config{Kind: streaming.L2, Params: p, Workers: addrs, Dialer: dialer})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Add(stream.Item{ID: 0, Time: 0, Vec: v}); err != nil {
			t.Fatal(err)
		}
		c.IndexSize() // SIZE refreshes the workers' sampled occupancy
		_, err = c.Add(stream.Item{ID: 1, Time: 1, Vec: v})
		var werr *WorkerError
		if !errors.Is(err, server.ErrBusy) || !errors.As(err, &werr) || werr.Index != 0 {
			t.Fatalf("over-budget item: err=%v, want worker 0's ErrBusy", err)
		}
		if _, err := c.Stats(); err != nil {
			t.Fatalf("a connection lost its alignment after BUSY: %v", err)
		}
	})

	// No shard engine with N > 1 can be checkpointed, so no real worker of
	// a multi-worker cluster ever answers MOVED today; a stub that speaks
	// the documented frame layout stands in for one that will.
	t.Run("moved", func(t *testing.T) {
		const target = "10.1.2.3:7411"
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
			for {
				var hdr [23]byte // marker, kind, side, id, time, nnz
				if _, err := io.ReadFull(r, hdr[:]); err != nil {
					return
				}
				if _, err := r.Discard(12 * int(binary.LittleEndian.Uint32(hdr[19:]))); err != nil {
					return
				}
				reply := binary.LittleEndian.AppendUint16([]byte{'V'}, uint16(len(target)))
				conn.Write(append(reply, target...))
			}
		}()
		addrs := []string{startWorker(t, server.Config{Params: p}), ln.Addr().String()}
		c, err := Connect(Config{Kind: streaming.L2AP, Params: p, Workers: addrs, Dialer: dialer})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, err = c.Add(stream.Item{ID: 0, Time: 0, Vec: v})
		var werr *WorkerError
		var moved *server.MovedError
		if !errors.Is(err, server.ErrMoved) || !errors.As(err, &werr) || werr.Index != 1 ||
			!errors.As(err, &moved) || moved.Addr != target {
			t.Fatalf("err=%v, want worker 1's MOVED %s", err, target)
		}
		if err := c.clients[0].Ping(); err != nil {
			t.Fatalf("worker 0's connection after worker 1 answered MOVED: %v", err)
		}
	})
}
