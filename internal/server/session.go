package server

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/dimorder"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// SessionOptions is the per-tenant configuration a SESSION command
// creates a joiner from: the option surface of one join, independent of
// every other session on the server. The protocol form is space-
// separated k=v tokens — theta=0.7 lambda=0.01 index=L2 join=foreign
// lateness=3 queue=64 shard=0/2 — and unset keys inherit the
// server's own Config, so "SESSION fast theta=0.9" differs from the
// default session in θ alone.
type SessionOptions struct {
	// Theta and Lambda are the join parameters (keys "theta", "lambda").
	Theta, Lambda float64
	// Index is the streaming scheme: "L2" (default), "INV", "L2AP",
	// "AP", or "AUTO" — the online engine selector, which starts on INV
	// and promotes itself as the stream warrants (key "index").
	Index string
	// Foreign selects the two-stream foreign join; connections then tag
	// items with SIDE (key "join", values "self"/"foreign").
	Foreign bool
	// Lateness is the event-time lateness bound δ of the session's
	// reorder stage (key "lateness"). Sessions with δ > 0 accept WM and
	// reject PUT/ADV, exactly like a whole server configured with
	// Config.Lateness.
	Lateness float64
	// Queue bounds the session's ingest queue: how many submitted
	// commands may wait for the session pipeline before further items
	// are refused with the typed BUSY reply (key "queue"; default
	// DefaultQueue).
	Queue int
	// Shard runs the session as cluster worker Shard.ID of Shard.N (key
	// "shard", value "i/N") — the session-scoped form of sssjd -shard,
	// which lets one daemon host worker shards of several clusters.
	Shard streaming.Shard
	// Rerank enables the online dimension re-ranker (key "rerank",
	// values "docfreq" or "maxval"; empty disables). Together with
	// index=auto this is the session-scoped form of the library's
	// Adaptive options; the reported pair set is unchanged.
	Rerank string
	// Cadence is the adaptation review cadence in items (key "cadence";
	// 0 uses the library default). Only valid with rerank or index=auto.
	Cadence int
}

// DefaultQueue is the ingest-queue bound of sessions that do not set
// the queue option (and of Config.Queue when zero): deep enough that a
// fleet of well-behaved connections never sees BUSY, shallow enough
// that a stalled consumer cannot buffer unbounded work.
const DefaultQueue = 64

// optionsFor derives the default session's options from a server
// Config.
func optionsFor(cfg Config) SessionOptions {
	return SessionOptions{
		Theta:    cfg.Params.Theta,
		Lambda:   cfg.Params.Lambda,
		Index:    "L2",
		Foreign:  cfg.Foreign,
		Lateness: cfg.Lateness,
		Queue:    cfg.Queue,
	}
}

// withDefaults fills unset fields.
func (o SessionOptions) withDefaults() SessionOptions {
	if o.Index == "" {
		o.Index = "L2"
	}
	if o.Queue <= 0 {
		o.Queue = DefaultQueue
	}
	return o
}

// validate rejects option combinations no session can run.
func (o SessionOptions) validate() error {
	if err := (apss.Params{Theta: o.Theta, Lambda: o.Lambda}).Validate(); err != nil {
		return err
	}
	if o.Lateness < 0 || math.IsNaN(o.Lateness) || math.IsInf(o.Lateness, 0) {
		return fmt.Errorf("lateness must be finite and >= 0, got %v", o.Lateness)
	}
	switch o.Index {
	case "L2", "INV", "L2AP", "AP", "AUTO":
	default:
		return fmt.Errorf("unknown index %q (want L2, INV, L2AP, AP, or auto)", o.Index)
	}
	switch o.Rerank {
	case "", "docfreq", "maxval":
	default:
		return fmt.Errorf("unknown rerank %q (want docfreq or maxval)", o.Rerank)
	}
	if o.Cadence < 0 {
		return fmt.Errorf("cadence must be >= 0, got %d", o.Cadence)
	}
	if o.Cadence > 0 && !o.adaptive() {
		return fmt.Errorf("cadence is set but neither rerank nor index=auto is enabled")
	}
	if o.Shard.N > 0 {
		if o.Lateness > 0 {
			return fmt.Errorf("shard sessions keep strict ordering (the coordinator owns reordering); lateness must be 0")
		}
		if o.adaptive() {
			return fmt.Errorf("shard sessions cannot self-tune (coordinator routing is keyed by natural dimensions)")
		}
	}
	return nil
}

// adaptive reports whether the options enable the self-tuning layer.
func (o SessionOptions) adaptive() bool { return o.Index == "AUTO" || o.Rerank != "" }

// adaptFor maps the protocol options onto the streaming Adapt config.
func (o SessionOptions) adaptFor() streaming.Adapt {
	if !o.adaptive() {
		return streaming.Adapt{}
	}
	ad := streaming.Adapt{Cadence: o.Cadence, Auto: o.Index == "AUTO"}
	switch o.Rerank {
	case "docfreq":
		ad.Rerank = dimorder.DocFreqAsc
	case "maxval":
		ad.Rerank = dimorder.MaxValueDesc
	}
	return ad
}

// String renders the options in the protocol's k=v form — the exact
// tokens parseSessionOptions accepts, which is how MIGRATE re-creates
// the session on the target daemon.
func (o SessionOptions) String() string {
	o = o.withDefaults()
	join := "self"
	if o.Foreign {
		join = "foreign"
	}
	s := fmt.Sprintf("theta=%s lambda=%s index=%s join=%s lateness=%s queue=%d",
		strconv.FormatFloat(o.Theta, 'g', -1, 64),
		strconv.FormatFloat(o.Lambda, 'g', -1, 64),
		o.Index, join,
		strconv.FormatFloat(o.Lateness, 'g', -1, 64),
		o.Queue)
	if o.Shard.N > 0 {
		s += fmt.Sprintf(" shard=%d/%d", o.Shard.ID, o.Shard.N)
	}
	if o.Rerank != "" {
		s += " rerank=" + o.Rerank
	}
	if o.Cadence > 0 {
		s += fmt.Sprintf(" cadence=%d", o.Cadence)
	}
	return s
}

// parseSessionOptions parses SESSION's k=v tokens over a base of
// defaults (the server's own configuration).
func parseSessionOptions(base SessionOptions, toks []string) (SessionOptions, error) {
	o := base.withDefaults()
	for _, tok := range toks {
		eq := strings.IndexByte(tok, '=')
		if eq <= 0 {
			return SessionOptions{}, fmt.Errorf("bad session option %q, want k=v", tok)
		}
		key, val := strings.ToLower(tok[:eq]), tok[eq+1:]
		switch key {
		case "theta", "lambda", "lateness":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return SessionOptions{}, fmt.Errorf("bad %s %q", key, val)
			}
			switch key {
			case "theta":
				o.Theta = f
			case "lambda":
				o.Lambda = f
			default:
				o.Lateness = f
			}
		case "index":
			o.Index = strings.ToUpper(val)
		case "rerank":
			o.Rerank = strings.ToLower(val)
		case "cadence":
			n, err := strconv.Atoi(val)
			if err != nil {
				return SessionOptions{}, fmt.Errorf("bad cadence %q", val)
			}
			o.Cadence = n
		case "join":
			switch strings.ToLower(val) {
			case "self":
				o.Foreign = false
			case "foreign":
				o.Foreign = true
			default:
				return SessionOptions{}, fmt.Errorf("bad join %q, want self or foreign", val)
			}
		case "queue":
			n, err := strconv.Atoi(val)
			if err != nil {
				return SessionOptions{}, fmt.Errorf("bad queue %q", val)
			}
			o.Queue = n
		case "shard":
			slash := strings.IndexByte(val, '/')
			if slash <= 0 {
				return SessionOptions{}, fmt.Errorf(`bad shard %q, want "i/N"`, val)
			}
			id, err1 := strconv.Atoi(val[:slash])
			n, err2 := strconv.Atoi(val[slash+1:])
			if err1 != nil || err2 != nil || n < 1 || id < 0 || id >= n {
				return SessionOptions{}, fmt.Errorf(`bad shard %q, want "i/N" with 0 <= i < N`, val)
			}
			o.Shard = streaming.Shard{ID: id, N: n}
		default:
			return SessionOptions{}, fmt.Errorf("unknown session option %q", key)
		}
	}
	if err := o.validate(); err != nil {
		return SessionOptions{}, err
	}
	return o, nil
}

// kindFor maps the option's index name (already validated).
func kindFor(index string) streaming.Kind {
	switch index {
	case "INV", "AUTO": // the auto ladder starts on the INV floor
		return streaming.INV
	case "L2AP":
		return streaming.L2AP
	case "AP":
		return streaming.AP
	default:
		return streaming.L2
	}
}

// sessionSnapshot is the scrape-safe copy of a session's observable
// state, published by the pipeline goroutine under snapMu after every
// request it serves. The /metrics handler and SESSIONS listing read the
// snapshot instead of the live joiner, so a stalled session (a consumer
// not draining its socket) serves its last known state rather than
// stalling observability with it.
type sessionSnapshot struct {
	counters metrics.Counters
	hist     metrics.Histogram
	size     streaming.SizeInfo
	arena    streaming.BlockInfo
	hasArena bool
	adapt    streaming.AdaptState
	hasAdapt bool
}

// session is one tenant: a joiner with its own options, ID space,
// stream clock, reorder stage, counters, latency histogram, and bounded
// ingest queue, driven by a dedicated pipeline goroutine. Connections
// attach to a session (SESSION command) and submit requests to its
// queue; the pipeline is the sole owner of everything below reqs.
type session struct {
	name string
	srv  *Server
	opts SessionOptions

	// Owned by the pipeline goroutine.
	counters   metrics.Counters
	joiner     core.Joiner
	sinkJoiner core.SinkJoiner
	reo        *stream.Reorder
	nextID     uint64
	lastT      float64
	begun      bool
	hist       metrics.Histogram // per-item ingest latency, nanoseconds
	// moved, once set, is the peer address the session migrated to:
	// every subsequent request is answered with the typed MOVED reply
	// and the joiner is released. Atomic because /metrics reads it from
	// the scrape goroutine; only the pipeline writes it.
	moved atomic.Pointer[string]

	reqs     chan ingestReq
	pipeDone chan struct{}

	// busy counts ingest submissions refused with the BUSY reply
	// (written by connection handlers, read by /metrics).
	busy atomic.Int64
	// liveEntries mirrors the last sampled PostingEntries for the
	// server-wide entry-budget check (see Config.EntryBudget).
	liveEntries atomic.Int64

	// snapMu guards only the snapshot copy, held for the duration of a
	// struct assignment.
	snapMu sync.Mutex
	snap   sessionSnapshot
}

// snapshot returns a copy of the session's published state.
func (s *session) snapshot() sessionSnapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return s.snap
}

// publish copies the pipeline-owned state into the snapshot. sampleSize
// additionally refreshes the index-occupancy and arena figures, which
// cost a walk over the posting lists and are therefore sampled (every
// sizeSampleEvery items, at creation, and on STATS/SIZE requests)
// rather than taken per item.
func (s *session) publish(sampleSize bool) {
	var size streaming.SizeInfo
	var arena streaming.BlockInfo
	var adapt streaming.AdaptState
	hasArena, hasAdapt := false, false
	if sampleSize && s.joiner != nil {
		if sizer, ok := s.joiner.(interface{ IndexSize() streaming.SizeInfo }); ok {
			size = sizer.IndexSize()
		}
		if ai, ok := s.joiner.(interface {
			ArenaInfo() (streaming.BlockInfo, bool)
		}); ok {
			arena, hasArena = ai.ArenaInfo()
		}
		if ad, ok := s.joiner.(interface {
			AdaptInfo() (streaming.AdaptState, bool)
		}); ok {
			adapt, hasAdapt = ad.AdaptInfo()
		}
		s.liveEntries.Store(int64(size.PostingEntries))
	}
	s.snapMu.Lock()
	s.snap.counters = s.counters
	s.snap.hist = s.hist
	if sampleSize {
		s.snap.size = size
		s.snap.arena = arena
		s.snap.hasArena = hasArena
		s.snap.adapt = adapt
		s.snap.hasAdapt = hasAdapt
	}
	s.snapMu.Unlock()
}

// sizeSampleEvery is how many processed items may pass between index
// occupancy samples: Size() walks the posting-list map, so taking it
// per item would tax the hot path for a gauge nobody scrapes that fast.
const sizeSampleEvery = 32

// run is the session pipeline goroutine: the sole owner of the joiner,
// ID counter, and stream clock. It mirrors the single-tenant pipeline's
// guarantee — every request that reached the queue is served and
// answered, in submission order — per session.
func (s *session) run() {
	defer close(s.pipeDone)
	items := 0
	for req := range s.reqs {
		resp := s.serve(req)
		if req.kind == ingestAdd {
			items++
		}
		s.publish(req.kind != ingestAdd || items%sizeSampleEvery == 0)
		req.reply <- resp
	}
}

// submit routes one request into the session queue and returns the
// pipeline's answer, which arrives on req.reply. When wait is false
// (item ingest) a full queue is refused immediately with errBusy — the
// typed backpressure contract — instead of parking the handler; control
// requests wait, bounded by server shutdown.
func (s *session) submit(req ingestReq, wait bool) ingestResp {
	if wait {
		select {
		case s.reqs <- req:
			return <-req.reply
		case <-s.srv.done:
			return ingestResp{err: errShutdown}
		}
	}
	select {
	case s.reqs <- req:
		return <-req.reply
	case <-s.srv.done:
		return ingestResp{err: errShutdown}
	default:
		s.busy.Add(1)
		return ingestResp{busy: true}
	}
}

// movedAddr returns the peer address the session migrated to, or "".
func (s *session) movedAddr() string {
	if m := s.moved.Load(); m != nil {
		return *m
	}
	return ""
}

// serve executes one pipeline request on the pipeline goroutine.
func (s *session) serve(req ingestReq) ingestResp {
	if m := s.movedAddr(); m != "" {
		return ingestResp{moved: m}
	}
	switch req.kind {
	case ingestStats:
		c := s.counters
		if sp, ok := s.joiner.(interface {
			Stats() (metrics.Counters, error)
		}); ok {
			cc, err := sp.Stats()
			if err != nil {
				return ingestResp{err: err}
			}
			c = cc
		}
		if req.statsJSON {
			b, err := marshalCounters(&c)
			if err != nil {
				return ingestResp{err: err}
			}
			return ingestResp{info: b}
		}
		return ingestResp{info: c.String()}
	case ingestSize:
		if sizer, ok := s.joiner.(interface{ IndexSize() streaming.SizeInfo }); ok {
			sz := sizer.IndexSize()
			return ingestResp{info: fmt.Sprintf("entries=%d residuals=%d lists=%d tracked=%d", sz.PostingEntries, sz.Residuals, sz.Lists, sz.TrackedDims)}
		}
		return ingestResp{info: "unavailable"}
	case ingestWM:
		return s.serveWM(req)
	case ingestAdv:
		return s.serveAdv(req)
	case ingestMigrate:
		return s.serveMigrate(req)
	}
	if budget := s.srv.cfg.EntryBudget; budget > 0 && s.srv.totalEntries() >= int64(budget) {
		// The shared index budget is exhausted: refuse the item with the
		// same typed, retryable reply as a full queue. Entries expire as
		// the horizon moves, so BUSY is a backpressure signal here too.
		s.busy.Add(1)
		return ingestResp{busy: true}
	}
	start := time.Now()
	resp := s.serveAdd(req)
	s.hist.Observe(float64(time.Since(start)))
	return resp
}

// serveAdd ingests one item (ADD/ADDNOW/PUT semantics).
func (s *session) serveAdd(req ingestReq) ingestResp {
	t := req.t
	if req.stampNow {
		t = s.srv.cfg.Now()
		if s.begun && t < s.lastT {
			t = s.lastT // clamp clock regressions
		}
	} else if s.reo == nil && s.begun && t < s.lastT {
		return ingestResp{err: fmt.Errorf("out of order: t=%v after t=%v", t, s.lastT)}
	}
	id := s.nextID
	if req.explicitID {
		id = req.id
	}
	it := stream.Item{ID: id, Time: t, Side: req.side, Vec: req.v}
	if s.reo != nil {
		// The reorder stage owns admission: a late item is rejected with
		// the watermark it fell behind, an admissible one is buffered and
		// every buffered item the new watermark passed flows through the
		// joiner — with its matches written to THIS request's connection
		// (see the package comment on bounded lateness).
		if err := s.reo.Push(it, s.feed(req.emit)); err != nil {
			if isLate(err) {
				s.counters.LateDrops++
			}
			return ingestResp{err: err}
		}
	} else if err := s.join(it, req.emit); err != nil {
		return ingestResp{err: err}
	}
	if req.explicitID {
		// Keep auto-assigned IDs ahead of every caller-assigned one.
		if req.id+1 > s.nextID {
			s.nextID = req.id + 1
		}
	} else {
		s.nextID++
	}
	if !s.begun || t > s.lastT {
		s.lastT = t
	}
	s.begun = true
	return ingestResp{id: id}
}

// serveWM executes a WM heartbeat: the reorder stage's clocks advance
// to req.t (stale heartbeats are no-ops), released items flow through
// the joiner into the requester's connection, and the engine's own
// clock is advanced to the watermark so expiration and sweeping happen
// even on an idle stream.
func (s *session) serveWM(req ingestReq) ingestResp {
	if err := s.reo.AdvanceTo(req.t, s.feed(req.emit)); err != nil {
		return ingestResp{err: err}
	}
	wm := s.reo.Watermark()
	if !math.IsInf(wm, -1) {
		if adv, ok := s.joiner.(core.Advancer); ok {
			if err := adv.AdvanceTo(wm, req.emit); err != nil {
				return ingestResp{err: err}
			}
		}
	}
	// The heartbeat promises producer clocks reached req.t; keep ADDNOW's
	// clamp floor consistent with that promise.
	if !s.begun || req.t > s.lastT {
		s.lastT = req.t
		s.begun = true
	}
	return ingestResp{info: strconv.FormatFloat(wm, 'g', -1, 64)}
}

// serveAdv executes an ADV barrier: the joiner moves its stream clock
// to req.t — performing expiry, sweep maintenance, and (window modes)
// watermark-closed flushes — and later items behind the barrier are
// rejected like any time regression. A stale barrier is the joiner's
// no-op.
func (s *session) serveAdv(req ingestReq) ingestResp {
	adv, ok := s.joiner.(core.Advancer)
	if !ok {
		return ingestResp{err: errNoBarriers}
	}
	if err := adv.AdvanceTo(req.t, req.emit); err != nil {
		return ingestResp{err: err}
	}
	if !s.begun || req.t > s.lastT {
		s.lastT = req.t
		s.begun = true
	}
	return ingestResp{info: strconv.FormatFloat(req.t, 'g', -1, 64)}
}

// feed returns the reorder stage's release target for one request.
func (s *session) feed(emit apss.Sink) func(stream.Item) error {
	return func(it stream.Item) error { return s.join(it, emit) }
}

// join runs one item through the joiner, its matches streaming into
// emit.
func (s *session) join(it stream.Item, emit apss.Sink) error {
	if s.sinkJoiner != nil && emit != nil {
		return s.sinkJoiner.AddTo(it, emit)
	}
	ms, err := s.joiner.Add(it)
	if err != nil {
		return err
	}
	if emit != nil {
		for _, m := range ms {
			emit(m)
		}
	}
	return nil
}

// newSession builds, registers, and starts a session. mk overrides the
// joiner construction (the default session's Config.NewJoiner path and
// ADOPT's restore path); nil builds from the options. The server lock
// serializes registration, so two connections racing to create the same
// name see exactly one winner.
func (srv *Server) newSession(name string, opts SessionOptions, mk func(*session) error) (*session, error) {
	if err := validSessionName(name); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	s := &session{
		name:     name,
		srv:      srv,
		opts:     opts,
		reqs:     make(chan ingestReq, opts.Queue),
		pipeDone: make(chan struct{}),
	}
	if mk == nil {
		mk = func(s *session) error {
			p := apss.Params{Theta: opts.Theta, Lambda: opts.Lambda}
			var (
				j   core.Joiner
				err error
			)
			if hook := srv.cfg.NewSessionJoiner; hook != nil {
				j, err = hook(name, opts, &s.counters)
			} else {
				j, err = core.NewSTRFull(kindFor(opts.Index), p, streaming.Options{
					Counters: &s.counters,
					Foreign:  opts.Foreign,
					Shard:    opts.Shard,
					Adapt:    opts.adaptFor(),
				})
			}
			if err != nil {
				return err
			}
			s.joiner = j
			return nil
		}
	}
	if err := mk(s); err != nil {
		return nil, err
	}
	s.sinkJoiner, _ = s.joiner.(core.SinkJoiner)
	if s.reo == nil && opts.Lateness > 0 {
		if opts.Foreign {
			s.reo = stream.NewSidedReorder(opts.Lateness)
		} else {
			s.reo = stream.NewReorder(opts.Lateness)
		}
	}
	srv.mu.Lock()
	select {
	case <-srv.done:
		srv.mu.Unlock()
		return nil, errShutdown
	default:
	}
	if _, exists := srv.sessions[name]; exists {
		srv.mu.Unlock()
		return nil, fmt.Errorf("session %q already exists", name)
	}
	srv.sessions[name] = s
	srv.mu.Unlock()
	s.publish(true)
	go s.run()
	return s, nil
}

// lookupSession returns a registered session.
func (srv *Server) lookupSession(name string) (*session, bool) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	s, ok := srv.sessions[name]
	return s, ok
}

// sessionList returns the registered sessions sorted by name.
func (srv *Server) sessionList() []*session {
	srv.mu.Lock()
	out := make([]*session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		out = append(out, s)
	}
	srv.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// totalEntries sums the sessions' last-sampled live posting entries —
// the shared-arena occupancy the entry budget bounds. Sampled values
// lag by at most sizeSampleEvery items per session, which is the
// documented slack of the budget.
func (srv *Server) totalEntries() int64 {
	var total int64
	srv.mu.Lock()
	for _, s := range srv.sessions {
		total += s.liveEntries.Load()
	}
	srv.mu.Unlock()
	return total
}

// validSessionName enforces the protocol's session-name charset: one
// token of letters, digits, and [._-], so names never collide with
// option tokens or framing.
func validSessionName(name string) error {
	if name == "" {
		return fmt.Errorf("empty session name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("bad session name %q: want letters, digits, '.', '_', '-'", name)
		}
	}
	return nil
}
