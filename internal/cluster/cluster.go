// Package cluster is the multi-process tier of the STR framework: a
// coordinator that fronts N sssjd worker servers and presents the
// single-process core.Joiner surface over them, with output bit-identical
// to one sequential engine fed the same stream.
//
// # Architecture
//
// Each worker is a plain server.Server (in another process or in-process
// for tests) whose joiner is a shard engine — streaming.Options.Shard
// selects worker i of N, which stores posting entries only for its owned
// dimensions d with d mod N == i and admits candidates under shard-local
// sound bounds (see internal/index/streaming/shard.go). The coordinator
//
//   - owns the global stream: ID assignment order, the strict time-order
//     contract, and (when Config.Lateness > 0) the bounded reorder stage —
//     workers always run δ = 0 and see items already released in
//     (time, id) order;
//   - routes each released item as one PUT item frame, encoded once: to every
//     worker for STR-L2AP/AP, whose monotone max-vector statistics must
//     observe the full stream to keep boundaries and re-indexing cadence
//     identical to one process, and to the owners of at least one of the
//     item's dimensions for STR-INV/L2;
//   - fans a watermark barrier out as ADV to every worker after each
//     AdvanceTo, so horizon expiry and sweep maintenance fire on idle
//     shards exactly as the event-time layer dictates;
//   - merges the per-worker MATCH streams: within one item the results
//     are deduplicated by partner ID (two workers may discover the same
//     pair through different dimensions) and emitted in ascending partner
//     order, a deterministic serialization of the one logical match set;
//   - aggregates STATS and SIZE: stream-level counters (items, pairs,
//     late drops) are counted here — summing them across workers would
//     double-count broadcast items and duplicate discoveries — while
//     work counters (entries traversed, candidates, dots, ...) sum over
//     workers, since each worker really did that work.
//
// # Why the output is bit-identical
//
// Every coordinate and similarity crosses the wire as its float64 bits
// (PUT frames and their replies; see the server package), vectors are
// normalized exactly once (at the coordinator;
// workers take PUT coordinates verbatim), and the shard engines recompute
// each verified pair's similarity in the sequential engine's exact
// operation order. Routing cannot lose a pair: a match's first contact
// happens at some indexed dimension of the partner, and the owner of that
// dimension receives both items. It cannot invent one either: workers
// verify exactly (no partial-information verification bounds are trusted
// across shards). The parity battery in this package pins all of this,
// eps 0, against the single-process engines.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"sssj/internal/apss"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/server"
	"sssj/internal/stream"
)

// Config configures a Coordinator.
type Config struct {
	// Kind is the streaming scheme every worker runs. It decides routing:
	// L2AP and AP broadcast every item (their global max-vector statistics
	// must see the full stream), INV and L2 route by dimension ownership.
	Kind streaming.Kind
	// Params are the join parameters; must match the workers'.
	Params apss.Params
	// Workers lists the worker server addresses. Worker i must run the
	// shard engine Shard{ID: i, N: len(Workers)}.
	Workers []string
	// Foreign selects the two-stream foreign join A ⋈ B; the workers must
	// be foreign servers.
	Foreign bool
	// Lateness is the event-time lateness bound δ of the cluster. The
	// coordinator owns the reorder stage; workers always run strict
	// ordering (δ = 0), which the PUT command enforces.
	Lateness float64
	// Session, when non-empty, makes the coordinator address a session
	// of that name on every worker instead of the workers' default
	// joiners: Connect creates it (SESSION <name> ... shard=i/N) on each
	// worker's connection, so the workers can be plain multi-tenant
	// daemons — no -shard flag — and one daemon fleet can host the
	// worker shards of several clusters side by side. Empty keeps the
	// PR 7 deployment: dedicated sssjd -shard i/N workers.
	Session string
	// Dialer establishes the worker connections. Configure IOTimeout so a
	// wedged worker surfaces as a WorkerError instead of a stalled merge.
	Dialer server.Dialer
}

// WorkerError attributes a cluster failure to one worker.
type WorkerError struct {
	Index int    // position in Config.Workers
	Addr  string // the worker's address
	Err   error
}

// Error implements error.
func (e *WorkerError) Error() string {
	return fmt.Sprintf("cluster: worker %d (%s): %v", e.Index, e.Addr, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *WorkerError) Unwrap() error { return e.Err }

// Coordinator fronts N workers behind the core.SinkJoiner surface. Like
// every Joiner, Add/AddTo/AdvanceTo/Flush are one-goroutine-at-a-time;
// the fan-out inside a call is the coordinator's own.
type Coordinator struct {
	cfg     Config
	clients []*server.Client
	reo     *stream.Reorder
	// Stream-level counters, owned by the driving goroutine.
	local metrics.Counters
	lastT float64
	begun bool

	// Per-call fan-out scratch, reused across items.
	frame   []byte // the item's PUT frame, encoded once for all targets
	targets []int
	merged  []apss.Match
}

// Connect dials every worker and assembles the coordinator.
func Connect(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Lateness < 0 || math.IsNaN(cfg.Lateness) || math.IsInf(cfg.Lateness, 0) {
		return nil, fmt.Errorf("cluster: Lateness must be finite and >= 0, got %v", cfg.Lateness)
	}
	c := &Coordinator{cfg: cfg}
	if cfg.Lateness > 0 {
		if cfg.Foreign {
			c.reo = stream.NewSidedReorder(cfg.Lateness)
		} else {
			c.reo = stream.NewReorder(cfg.Lateness)
		}
	}
	for i, addr := range cfg.Workers {
		cl, err := cfg.Dialer.Dial(addr)
		if err == nil && cfg.Session != "" {
			// The session IS the shard engine: creating it with shard=i/N
			// builds exactly the joiner a dedicated -shard worker would run,
			// scoped to this cluster's name.
			err = cl.Session(cfg.Session,
				"theta="+strconv.FormatFloat(cfg.Params.Theta, 'g', -1, 64),
				"lambda="+strconv.FormatFloat(cfg.Params.Lambda, 'g', -1, 64),
				"index="+cfg.Kind.String(),
				"join="+joinName(cfg.Foreign),
				fmt.Sprintf("shard=%d/%d", i, len(cfg.Workers)))
			if err != nil {
				cl.Close()
			}
		}
		if err != nil {
			for _, open := range c.clients {
				open.Close()
			}
			return nil, &WorkerError{Index: i, Addr: addr, Err: err}
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

// joinName renders the join mode as the SESSION option value.
func joinName(foreign bool) string {
	if foreign {
		return "foreign"
	}
	return "self"
}

// dispatch sends one released item to its workers and emits the merged,
// deduplicated match set, all on the driving goroutine. The item is
// encoded once and the same bytes are written to every target before any
// reply is awaited, so the workers compute side by side. That cannot
// deadlock: a worker reads its whole request before it answers, so no
// write here ever waits on a reply not yet read. Every request that was
// started is finished even after a failure, which leaves the surviving
// connections aligned on a request boundary; the first failure, in
// target order, is the one reported.
func (c *Coordinator) dispatch(it stream.Item, emit apss.Sink) error {
	c.local.Items++
	c.targets = streaming.Route(c.cfg.Kind, len(c.clients), it.Vec.Dims, c.targets[:0])
	targets := c.targets
	if len(targets) == 0 {
		return nil // empty vector: matches nothing, indexes nothing
	}
	c.frame = server.AppendPutFrame(c.frame[:0], it.ID, it.Side, it.Time, it.Vec)
	var failed error
	sent := 0
	for _, w := range targets {
		if err := c.clients[w].StartPut(c.frame); err != nil {
			failed = c.workerErr(w, err)
			break
		}
		sent++
	}
	c.merged = c.merged[:0]
	for _, w := range targets[:sent] {
		var err error
		if c.merged, err = c.clients[w].FinishPut(it.ID, c.merged); err != nil && failed == nil {
			failed = c.workerErr(w, err)
		}
	}
	if failed != nil {
		return failed
	}
	return c.emitAll(apss.DedupPartners(c.merged), emit)
}

// workerErr attributes err to worker w.
func (c *Coordinator) workerErr(w int, err error) error {
	return &WorkerError{Index: w, Addr: c.cfg.Workers[w], Err: err}
}

// emitAll pushes matches into emit under the SinkJoiner contract: the
// first emit error stops delivery but the item stays fully processed.
func (c *Coordinator) emitAll(ms []apss.Match, emit apss.Sink) error {
	c.local.Pairs += int64(len(ms))
	if emit == nil {
		return nil
	}
	for _, m := range ms {
		if err := emit(m); err != nil {
			return err
		}
	}
	return nil
}

// AddTo routes x through the cluster, streaming its matches into emit.
func (c *Coordinator) AddTo(x stream.Item, emit apss.Sink) error {
	if c.reo != nil {
		if err := c.reo.Push(x, func(it stream.Item) error { return c.dispatch(it, emit) }); err != nil {
			var late *stream.LateError
			if errors.As(err, &late) {
				c.local.LateDrops++
			}
			return err
		}
		return nil
	}
	// The coordinator enforces the global time order: under selective
	// routing a lagging worker would otherwise accept an item the
	// sequential engine rejects.
	if c.begun && x.Time < c.lastT {
		return fmt.Errorf("%w: t=%v after t=%v", streaming.ErrTimeOrder, x.Time, c.lastT)
	}
	if err := c.dispatch(x, emit); err != nil {
		return err
	}
	if !c.begun || x.Time > c.lastT {
		c.lastT = x.Time
	}
	c.begun = true
	return nil
}

// Add is the slice adapter over AddTo.
func (c *Coordinator) Add(x stream.Item) ([]apss.Match, error) {
	var out []apss.Match
	err := c.AddTo(x, apss.Collector(&out))
	return out, err
}

// AdvanceTo implements core.Advancer: with a reorder stage the barrier
// releases buffered items first (their matches flow into emit), then the
// resulting watermark — not the raw heartbeat — fans out to every worker
// as an ADV engine barrier.
func (c *Coordinator) AdvanceTo(t float64, emit apss.Sink) error {
	wm := t
	if c.reo != nil {
		if err := c.reo.AdvanceTo(t, func(it stream.Item) error { return c.dispatch(it, emit) }); err != nil {
			return err
		}
		wm = c.reo.Watermark()
		if math.IsInf(wm, -1) {
			return nil
		}
	} else {
		if c.begun && wm < c.lastT {
			return nil // stale barrier: engine no-op
		}
		c.lastT = wm
		c.begun = true
	}
	for i, cl := range c.clients {
		ms, err := cl.Advance(wm)
		if err != nil {
			return c.workerErr(i, err)
		}
		// Plain STR shards release nothing on a barrier; forward anything
		// a custom worker joiner might report.
		if err := c.emitAll(ms, emit); err != nil {
			return err
		}
	}
	return nil
}

// Watermark reports the coordinator's event-time watermark: −Inf until
// defined, and always −Inf at δ = 0, mirroring the single-process tier.
func (c *Coordinator) Watermark() float64 {
	if c.reo == nil {
		return math.Inf(-1)
	}
	return c.reo.Watermark()
}

// Flush implements core.Joiner; the STR workers buffer nothing.
func (c *Coordinator) Flush() ([]apss.Match, error) { return nil, nil }

// FlushTo implements core.SinkJoiner.
func (c *Coordinator) FlushTo(emit apss.Sink) error { return nil }

// Stats aggregates the cluster's counters: stream-level counts (items,
// pairs, late drops) are the coordinator's own — worker copies would
// double-count broadcast routing and duplicate discoveries — and work
// counters sum across workers via STATS JSON.
func (c *Coordinator) Stats() (metrics.Counters, error) {
	out := c.local
	for i, cl := range c.clients {
		wc, err := cl.StatsJSON()
		if err != nil {
			return metrics.Counters{}, c.workerErr(i, err)
		}
		wc.Items, wc.Pairs, wc.LateDrops = 0, 0, 0
		out.Add(wc)
	}
	return out, nil
}

// IndexSize sums occupancy across workers. Unreachable workers count as
// empty — occupancy is a diagnostic, not a correctness surface.
func (c *Coordinator) IndexSize() streaming.SizeInfo {
	var out streaming.SizeInfo
	for _, cl := range c.clients {
		sz, err := cl.SizeInfo()
		if err != nil {
			continue
		}
		out.PostingEntries += sz.PostingEntries
		out.Residuals += sz.Residuals
		out.Lists += sz.Lists
		out.TrackedDims += sz.TrackedDims
	}
	return out
}

// Close closes every worker connection (sending QUIT). The workers
// themselves keep running; stopping them belongs to whoever started them.
func (c *Coordinator) Close() error {
	var first error
	for _, cl := range c.clients {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
