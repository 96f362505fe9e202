package server

import (
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// TestSessionLifecycle covers the SESSION verb: creation with options,
// duplicate refusal, bare-name attach, the sorted SESSIONS listing, and
// option/name validation errors that leave the connection usable.
func TestSessionLifecycle(t *testing.T) {
	s := startServer(t, Config{})
	c := dialT(t, s)

	if err := c.Session("ghost"); err == nil {
		t.Fatal("attach to a nonexistent session succeeded")
	}
	if err := c.Session("fast", "theta=0.9", "index=INV"); err != nil {
		t.Fatal(err)
	}
	c2 := dialT(t, s)
	if err := c2.Session("fast", "theta=0.5"); err == nil {
		t.Fatal("duplicate session creation succeeded")
	}
	if err := c2.Session("fast"); err != nil {
		t.Fatalf("bare-name attach: %v", err)
	}
	names, err := c.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"default", "fast"}) {
		t.Fatalf("SESSIONS = %v, want [default fast]", names)
	}
	for _, tc := range [][]string{
		{"bad", "theta=2"},     // invalid params
		{"bad", "nope=1"},      // unknown key
		{"bad", "workers=4"},   // the parallel engine is library-only
		{"bad", "join=both"},   // bad enum
		{"bad", "shard=2/2"},   // out-of-range shard
		{"a/b", "theta=0.5"},   // bad name charset
		{"bad", "index=BOGUS"}, // unknown index
		{"bad", "lateness=-1"}, // negative δ
	} {
		if err := c2.Session(tc[0], tc[1:]...); err == nil {
			t.Fatalf("SESSION %v accepted", tc)
		}
	}
	// The connection survives every rejection.
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionIsolation: sessions have independent thresholds, counters,
// and ID spaces — traffic on one never shows up in another.
func TestSessionIsolation(t *testing.T) {
	s := startServer(t, Config{})
	strict := dialT(t, s)
	if err := strict.Session("strict", "theta=0.95"); err != nil {
		t.Fatal(err)
	}
	loose := dialT(t, s) // stays on the default session (θ = 0.7)

	v1 := vec.MustNew([]uint32{1}, []float64{1})
	v2 := vec.MustNew([]uint32{1, 2}, []float64{2, 1}).Normalize() // sim(v1,v2) ≈ 0.894
	for _, c := range []*Client{strict, loose} {
		if _, ms, err := c.Add(0, v1); err != nil || len(ms) != 0 {
			t.Fatalf("first add: ms=%v err=%v", ms, err)
		}
	}
	if _, ms, err := strict.Add(0, v2); err != nil || len(ms) != 0 {
		t.Fatalf("θ=0.95 session matched sim≈0.894: %v (err=%v)", ms, err)
	}
	if _, ms, err := loose.Add(0, v2); err != nil || len(ms) != 1 {
		t.Fatalf("default session missed sim≈0.894: %v (err=%v)", ms, err)
	}
	// IDs restart per session: both sessions assigned 0 then 1.
	id, _, err := strict.Add(1, v1)
	if err != nil || id != 2 {
		t.Fatalf("strict id = %d err=%v, want 2", id, err)
	}
	// Counters are per session.
	st, err := strict.StatsJSON()
	if err != nil || st.Items != 3 {
		t.Fatalf("strict items = %d err=%v, want 3", st.Items, err)
	}
	lt, err := loose.StatsJSON()
	if err != nil || lt.Items != 2 {
		t.Fatalf("default items = %d err=%v, want 2", lt.Items, err)
	}
}

// TestSessionLatenessOption: lateness is a per-session capability — a
// δ > 0 session accepts WM and reorders, while the default session on
// the same server keeps the strict contract and rejects WM.
func TestSessionLatenessOption(t *testing.T) {
	s := startServer(t, Config{})
	c := dialT(t, s)
	if err := c.Session("late", "lateness=5"); err != nil {
		t.Fatal(err)
	}
	v := vec.MustNew([]uint32{1}, []float64{1})
	if _, _, err := c.Add(10, v); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Add(7, v); err != nil { // within δ: buffered
		t.Fatal(err)
	}
	wm, ms, err := c.Watermark(20)
	if err != nil || wm != 15 {
		t.Fatalf("wm=%v err=%v, want 15", wm, err)
	}
	if len(ms) != 1 {
		t.Fatalf("released matches = %v, want 1", ms)
	}
	d := dialT(t, s)
	if _, _, err := d.Watermark(10); err == nil {
		t.Fatal("WM accepted on the strict default session")
	}
}

// gateJoiner wraps a real joiner with an entry signal and a release
// gate, simulating a session whose pipeline is stuck mid-item. The
// embedded interface deliberately hides AddTo, so the session falls
// back to the slice path and every item funnels through the gate.
type gateJoiner struct {
	core.Joiner
	entered chan struct{}
	gate    chan struct{}
}

func (g *gateJoiner) Add(it stream.Item) ([]apss.Match, error) {
	select {
	case g.entered <- struct{}{}: // signal the first arrival (buffered: the test may not be waiting yet); later ones pass
	default:
	}
	<-g.gate
	return g.Joiner.Add(it)
}

// TestBackpressureContract pins the typed-backpressure contract: a
// session stuck behind a slow consumer answers BUSY once its bounded
// queue fills — immediately, without parking the submitting handler —
// while other sessions keep serving, and the refused item is retryable
// once the queue drains. Everything is deadline-based; nothing sleeps
// for correctness.
func TestBackpressureContract(t *testing.T) {
	gate := &gateJoiner{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	cfg := Config{
		NewSessionJoiner: func(name string, opts SessionOptions, c *metrics.Counters) (core.Joiner, error) {
			j, err := core.NewSTRFull(kindFor(opts.Index), apss.Params{Theta: opts.Theta, Lambda: opts.Lambda},
				streaming.Options{Counters: c})
			if err != nil {
				return nil, err
			}
			if name == "slow" {
				gate.Joiner = j
				return gate, nil
			}
			return j, nil
		},
	}
	s := startServer(t, cfg)
	v := vec.MustNew([]uint32{1}, []float64{1})

	slow1 := dialT(t, s)
	if err := slow1.Session("slow", "queue=1"); err != nil {
		t.Fatal(err)
	}
	slow2, slow3 := dialT(t, s), dialT(t, s)
	for _, c := range []*Client{slow2, slow3} {
		if err := c.Session("slow"); err != nil {
			t.Fatal(err)
		}
	}
	fast := dialT(t, s)
	if err := fast.Session("fast", "theta=0.7"); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(10 * time.Second)
	// First item: dequeued by the pipeline, stuck inside the joiner.
	res1 := make(chan error, 1)
	go func() { _, _, err := slow1.Add(1, v); res1 <- err }()
	select {
	case <-gate.entered:
	case <-deadline:
		t.Fatal("pipeline never reached the joiner")
	}
	// Second item: sits in the queue (capacity 1), handler parked.
	res2 := make(chan error, 1)
	go func() { _, _, err := slow2.Add(2, v); res2 <- err }()
	se, ok := s.lookupSession("slow")
	if !ok {
		t.Fatal("slow session missing")
	}
	for len(se.reqs) == 0 {
		select {
		case <-deadline:
			t.Fatal("second item never reached the queue")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// Third item: the queue is full — the typed BUSY reply, immediately.
	_, _, err := slow3.Add(3, v)
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Session != "slow" || !errors.Is(err, ErrBusy) {
		t.Fatalf("queue-full add: err=%v, want *BusyError{slow}", err)
	}
	// The stalled session does not stall its neighbors: the fast session
	// serves a burst while slow is wedged.
	for i := 0; i < 50; i++ {
		if _, _, err := fast.Add(float64(i), v); err != nil {
			t.Fatalf("fast session stalled by slow one: %v", err)
		}
	}
	// Release the gate: both queued items complete, in submission order.
	close(gate.gate)
	for _, ch := range []chan error{res1, res2} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("queued item never completed")
		}
	}
	// BUSY was backpressure, not failure: the retry lands.
	if id, _, err := slow3.Add(3, v); err != nil || id != 2 {
		t.Fatalf("retry after BUSY: id=%d err=%v, want id=2", id, err)
	}
	st, err := slow3.StatsJSON()
	if err != nil || st.Items != 3 {
		t.Fatalf("slow items = %d err=%v, want 3 (the refused item was not ingested)", st.Items, err)
	}
}

// TestEntryBudget: the shared posting-entry budget refuses ingest with
// the same typed BUSY reply as a full queue once the sampled occupancy
// reaches the bound.
func TestEntryBudget(t *testing.T) {
	s := startServer(t, Config{EntryBudget: 1})
	c := dialT(t, s)
	v := vec.MustNew([]uint32{1}, []float64{1})
	if _, _, err := c.Add(0, v); err != nil {
		t.Fatal(err)
	}
	// Occupancy is sampled; SIZE forces a fresh sample.
	if _, err := c.Size(); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.Add(1, v)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("over-budget add: err=%v, want ErrBusy", err)
	}
}

// TestMetricsEndpoint scrapes /metrics and checks the families the
// DESIGN doc promises: per-session counters, queue gauges, sampled
// index/arena occupancy, the latency histogram, and the exposition
// content type.
func TestMetricsEndpoint(t *testing.T) {
	s := startServer(t, Config{})
	c := dialT(t, s)
	if err := c.Session("tenant", "theta=0.8"); err != nil {
		t.Fatal(err)
	}
	v := vec.MustNew([]uint32{1, 2}, []float64{1, 1}).Normalize()
	for i := 0; i < 3; i++ {
		if _, _, err := c.Add(float64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Size(); err != nil { // force an occupancy sample
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	s.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE sssj_items_total counter",
		`sssj_items_total{session="default"} 0`,
		`sssj_items_total{session="tenant"} 3`,
		`sssj_pairs_total{session="tenant"} 3`,
		`sssj_session_up{session="tenant"} 1`,
		`sssj_busy_total{session="tenant"} 0`,
		`sssj_ingest_queue_depth{session="tenant"} 0`,
		`sssj_ingest_queue_capacity{session="tenant"} 64`,
		`sssj_index_posting_entries{session="tenant"}`,
		`sssj_arena_blocks_live{session="tenant"}`,
		"# TYPE sssj_ingest_latency_seconds histogram",
		`sssj_ingest_latency_seconds_count{session="tenant"} 3`,
		`sssj_ingest_latency_seconds_bucket{session="tenant",le="+Inf"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape missing %q:\n%s", want, body)
		}
	}
}
