package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"testing"

	"sssj/internal/apss"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// migStream builds a deterministic stream with frequent near-repeats
// (so matches actually occur), strictly increasing times, and
// alternating sides when foreign.
func migStream(seed int64, n int, foreign bool) []stream.Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]stream.Item, 0, n)
	var prev vec.Vector
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.Float64() / 2
		var v vec.Vector
		if prev.Dims != nil && rng.Float64() < 0.35 {
			// Perturbed repeat of the previous vector: a likely match.
			vals := append([]float64(nil), prev.Vals...)
			vals[rng.Intn(len(vals))] *= 1 + (rng.Float64()-0.5)/8
			v = vec.MustNew(append([]uint32(nil), prev.Dims...), vals)
		} else {
			nnz := 1 + rng.Intn(4)
			seen := map[uint32]bool{}
			var dims []uint32
			var vals []float64
			for len(dims) < nnz {
				d := uint32(rng.Intn(20))
				if seen[d] {
					continue
				}
				seen[d] = true
				dims = append(dims, d)
				vals = append(vals, 0.05+rng.Float64())
			}
			v = vec.MustNew(dims, vals)
		}
		prev = v
		it := stream.Item{ID: uint64(i), Time: t, Vec: v.Normalize()}
		if foreign && i%2 == 1 {
			it.Side = apss.SideB
		}
		items = append(items, it)
	}
	return items
}

// feedADD pushes items through the ADD path (switching SIDE as the
// stream interleaves on foreign sessions) and collects every reported
// match. side tracks the connection's current side across calls.
func feedADD(t *testing.T, c *Client, items []stream.Item, foreign bool, side *apss.Side) []apss.Match {
	t.Helper()
	var out []apss.Match
	for _, it := range items {
		if foreign && it.Side != *side {
			if err := c.Side(it.Side); err != nil {
				t.Fatal(err)
			}
			*side = it.Side
		}
		_, ms, err := c.Add(it.Time, it.Vec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ms...)
	}
	return out
}

// TestMigrationParityGrid is the acceptance battery for live migration:
// for {INV, L2, L2AP} × {self, foreign} × δ ∈ {0, 3}, a session whose
// stream is cut mid-way by MIGRATE to a second daemon produces exactly
// the match set (eps 0 — bit-identical down to the wire float format)
// and exactly the counters of the same stream served by one
// uninterrupted session. Under δ > 0 the stream is a within-δ shuffle,
// so the cut lands while items are still buffered in the reorder stage
// — migration must carry them across, not drop them. A lone shard=0/1
// session (the sequential engine under a cluster-worker key) migrates
// like any other; it keeps strict ordering, so it runs at δ = 0 only.
func TestMigrationParityGrid(t *testing.T) {
	const delta = 3.0
	for _, index := range []string{"INV", "L2", "L2AP"} {
		for _, foreign := range []bool{false, true} {
			items := migStream(13, 140, foreign)
			for _, cell := range []struct {
				lateness float64
				shard    bool
			}{{0, false}, {delta, false}, {0, true}} {
				lateness := cell.lateness
				name := fmt.Sprintf("%s/foreign=%v/delta=%g", index, foreign, lateness)
				if cell.shard {
					name += "/shard=0of1"
				}
				t.Run(name, func(t *testing.T) {
					opts := []string{"theta=0.6", "lambda=0.1", "index=" + index}
					if foreign {
						opts = append(opts, "join=foreign")
					}
					if cell.shard {
						opts = append(opts, "shard=0/1")
					}
					if lateness > 0 {
						opts = append(opts, "lateness="+strconv.FormatFloat(lateness, 'g', -1, 64))
					}
					feed := items
					if lateness > 0 {
						feed = stream.ShuffleWithin(items, lateness*0.9, 7)
					}
					endT := items[len(items)-1].Time + lateness + 1

					// Reference: the same stream on one uninterrupted session.
					ref := startServer(t, Config{})
					rc := dialT(t, ref)
					if err := rc.Session("mig", opts...); err != nil {
						t.Fatal(err)
					}
					side := apss.SideA
					want := feedADD(t, rc, feed, foreign, &side)
					if lateness > 0 {
						_, ms, err := rc.Watermark(endT)
						if err != nil {
							t.Fatal(err)
						}
						want = append(want, ms...)
					}
					if len(want) == 0 {
						t.Fatal("vacuous battery cell: reference found no matches")
					}
					wantStats, err := rc.StatsJSON()
					if err != nil {
						t.Fatal(err)
					}

					// Migrated: first half on A, live handoff, finish on B.
					a := startServer(t, Config{})
					b := startServer(t, Config{})
					ca := dialT(t, a)
					if err := ca.Session("mig", opts...); err != nil {
						t.Fatal(err)
					}
					half := len(feed) / 2
					side = apss.SideA
					got := feedADD(t, ca, feed[:half], foreign, &side)
					if err := ca.Migrate(b.addr); err != nil {
						t.Fatal(err)
					}
					// The source answers the typed redirect from now on.
					var moved *MovedError
					if _, _, err := ca.Add(endT, feed[0].Vec); !errors.As(err, &moved) || moved.Addr != b.addr || !errors.Is(err, ErrMoved) {
						t.Fatalf("add after migration: err=%v, want *MovedError{%s}", err, b.addr)
					}
					cb := dialT(t, b)
					if err := cb.Session("mig"); err != nil {
						t.Fatal(err)
					}
					side = apss.SideA
					got = append(got, feedADD(t, cb, feed[half:], foreign, &side)...)
					if lateness > 0 {
						_, ms, err := cb.Watermark(endT)
						if err != nil {
							t.Fatal(err)
						}
						got = append(got, ms...)
					}
					if !apss.EqualMatchSets(want, got, 0) {
						t.Fatalf("migrated match set diverges: %d matches vs %d uninterrupted", len(got), len(want))
					}
					gotStats, err := cb.StatsJSON()
					if err != nil {
						t.Fatal(err)
					}
					if gotStats != wantStats {
						t.Fatalf("counters diverge after migration:\nwant %+v\ngot  %+v", wantStats, gotStats)
					}
				})
			}
		}
	}
}

// TestMigrateIDContinuity: the target session keeps assigning IDs where
// the source stopped — the stream is one ID space across the handoff.
func TestMigrateIDContinuity(t *testing.T) {
	a := startServer(t, Config{})
	b := startServer(t, Config{})
	ca := dialT(t, a)
	if err := ca.Session("s", "theta=0.7", "lambda=0.1"); err != nil {
		t.Fatal(err)
	}
	v := vec.MustNew([]uint32{1}, []float64{1})
	for i := 0; i < 5; i++ {
		if id, _, err := ca.Add(float64(i), v); err != nil || id != uint64(i) {
			t.Fatalf("add %d: id=%d err=%v", i, id, err)
		}
	}
	if err := ca.Migrate(b.addr); err != nil {
		t.Fatal(err)
	}
	cb := dialT(t, b)
	if err := cb.Session("s"); err != nil {
		t.Fatal(err)
	}
	if id, _, err := cb.Add(5, v); err != nil || id != 5 {
		t.Fatalf("post-migration id=%d err=%v, want 5", id, err)
	}
	// The stream clock traveled too: a regression is still rejected.
	if _, _, err := cb.Add(3, v); err == nil {
		t.Fatal("out-of-order item accepted after migration")
	}
}

// TestMigrateDefaultRefused: the default session exists on every
// daemon, so migrating it can never be adopted — the source refuses
// up front and keeps serving.
func TestMigrateDefaultRefused(t *testing.T) {
	a := startServer(t, Config{})
	b := startServer(t, Config{})
	c := dialT(t, a)
	if err := c.Migrate(b.addr); err == nil {
		t.Fatal("migrating the default session succeeded")
	}
	v := vec.MustNew([]uint32{1}, []float64{1})
	if _, _, err := c.Add(0, v); err != nil {
		t.Fatalf("default session stopped serving after refused migration: %v", err)
	}
}

// TestMigrateAbortSafe: when the target refuses (here: the name is
// already taken there), the source session is untouched — no item is
// lost and no redirect is latched.
func TestMigrateAbortSafe(t *testing.T) {
	a := startServer(t, Config{})
	b := startServer(t, Config{})
	ca := dialT(t, a)
	if err := ca.Session("dup", "theta=0.7", "lambda=0.1"); err != nil {
		t.Fatal(err)
	}
	cb := dialT(t, b)
	if err := cb.Session("dup", "theta=0.7", "lambda=0.1"); err != nil {
		t.Fatal(err)
	}
	v := vec.MustNew([]uint32{1}, []float64{1})
	if _, _, err := ca.Add(0, v); err != nil {
		t.Fatal(err)
	}
	if err := ca.Migrate(b.addr); err == nil {
		t.Fatal("migration onto a taken name succeeded")
	}
	// Still here, still serving, state intact.
	if _, ms, err := ca.Add(1, v); err != nil || len(ms) != 1 {
		t.Fatalf("source session damaged by aborted migration: ms=%v err=%v", ms, err)
	}
	st, err := ca.StatsJSON()
	if err != nil || st.Items != 2 {
		t.Fatalf("source counters after abort: %+v err=%v", st, err)
	}
}

// TestMigrateBadTarget: an unreachable peer aborts the migration
// cleanly; the session keeps serving on the source.
func TestMigrateBadTarget(t *testing.T) {
	a := startServer(t, Config{})
	c := dialT(t, a)
	if err := c.Session("s", "theta=0.7", "lambda=0.1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate("127.0.0.1:1"); err == nil {
		t.Fatal("migration to an unreachable peer succeeded")
	}
	v := vec.MustNew([]uint32{1}, []float64{1})
	if _, _, err := c.Add(0, v); err != nil {
		t.Fatalf("session stopped serving after failed migration: %v", err)
	}
}

// TestMigrateAckBounded: a peer that answers ADOPT with an endless line
// (2 MiB, no newline) cannot make the source buffer it. The read stops
// at the 1 MiB line bound, MIGRATE fails with a typed error, and the
// session stays local and un-MOVED.
func TestMigrateAckBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stubDone := make(chan struct{})
	go func() {
		defer close(stubDone)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Swallow the whole ADOPT request first, so closing leaves no
		// unread bytes behind (which would reset the connection).
		r := bufio.NewReader(conn)
		header, _ := r.ReadString('\n')
		r.ReadString('\n') // counters line
		if f := strings.Fields(header); len(f) > 5 {
			n, _ := strconv.ParseInt(f[5], 10, 64)
			io.CopyN(io.Discard, r, n)
		}
		conn.Write(bytes.Repeat([]byte{'x'}, 2<<20))
	}()

	a := startServer(t, Config{})
	c := dialT(t, a)
	if err := c.Session("s", "theta=0.7", "lambda=0.1"); err != nil {
		t.Fatal(err)
	}
	v := vec.MustNew([]uint32{1}, []float64{1})
	if _, _, err := c.Add(0, v); err != nil {
		t.Fatal(err)
	}
	err = c.Migrate(ln.Addr().String())
	if err == nil || !strings.Contains(err.Error(), ErrLineTooLong.Error()) {
		t.Fatalf("MIGRATE against an endless acknowledgment: err=%v, want %q", err, ErrLineTooLong)
	}
	<-stubDone
	if _, ms, err := c.Add(1, v); err != nil || len(ms) != 1 {
		t.Fatalf("session stopped serving after the refused migration: ms=%v err=%v", ms, err)
	}
}
