// Package server exposes streaming similarity joins over TCP, so that
// producers in other processes (or machines) can feed shared streams
// and receive matches online — the deployment shape of the paper's
// motivating applications, where posts arrive from a frontend and
// near-duplicate/trend signals flow back.
//
// # Protocol
//
// Line-oriented, UTF-8. Client → server:
//
//	ADD <timestamp> <dim>:<val> <dim>:<val> ...
//	ADDNOW <dim>:<val> ...        (server assigns the arrival timestamp)
//	SIDE <A|B>                    (foreign join: side of subsequent ADDs)
//	WM <timestamp>                (event-time heartbeat; bounded-lateness sessions)
//	PUT <id> <A|B> <timestamp> <dim>:<val> ...   (cluster ingest; see below)
//	ADV <timestamp>               (engine time barrier; cluster watermark fan-out)
//	SESSION <name> [<k>=<v> ...]  (attach to — or, with options, create — a session)
//	SESSIONS                      (list sessions)
//	MIGRATE <addr>                (hand the attached session to a peer daemon)
//	STATS                         (operation counters, text form)
//	STATS JSON                    (operation counters as one JSON line)
//	SIZE                          (index occupancy)
//	PING
//	QUIT
//
// Server → client, in response to ADD/ADDNOW:
//
//	MATCH <x> <y> <sim> <dot> <dt>   (zero or more)
//	OK <id>                          (the item's assigned stream ID)
//
// or "ERR <message>" for rejected input, plus two typed replies every
// client must know:
//
//	BUSY <session>   (backpressure: the session's bounded ingest queue —
//	                 or the server's shared entry budget — refused the
//	                 item; nothing was ingested, retry after backing off)
//	MOVED <addr>     (the session migrated to the daemon at <addr>;
//	                 redial there and re-attach with SESSION)
//
// ADD, ADDNOW and PUT also have a binary form, the item frame of
// frame.go, told from a line by its first byte; it is what Client sends,
// and it carries every float as its bits. A frame is answered in tagged
// binary records, a line in lines; past parsing the two forms are one
// code path. Lines are bounded at 1 MiB ("ERR line too long"), frames at
// MaxFrameNNZ coordinates.
//
// # Sessions
//
// The server is multi-tenant: it hosts named sessions, each one an
// independent joiner with its own θ/λ, index scheme, join mode,
// lateness bound, worker count, counters, and bounded ingest queue.
// Every connection is attached to exactly one session — the "default"
// session (built from the server's own Config) until a SESSION command
// switches it — and all stream commands (ADD/ADDNOW/PUT/ADV/WM/STATS/
// SIZE/MIGRATE) act on the attached session.
//
//	SESSION <name>                attach to an existing session
//	SESSION <name> <k>=<v> ...    create <name> with the given options
//	                              (error if it exists) and attach
//
// Option keys: theta, lambda, index (L2|INV|L2AP), join (self|foreign),
// lateness, queue, shard (i/N); unset keys inherit the server
// Config. Items from all connections attached to one session interleave
// into that session's stream, exactly as all connections of the old
// single-join server did; sessions never observe each other's items.
//
// Within a session the ingest pipeline works as before: connection
// handlers parse concurrently and submit to one pipeline goroutine per
// session that owns the joiner, the ID counter, and the stream clock,
// writing each item's matches straight into the submitting connection's
// buffer while the handler is parked on the reply. What changed is the
// queue bound: an item submitted to a full session queue is refused
// immediately with "BUSY <session>" instead of parking the handler, so
// one slow consumer saturating its session cannot stall or reorder
// other sessions. Control commands (STATS/SIZE/WM/ADV/MIGRATE) still
// wait for a queue slot — they are rare, and their callers want the
// answer.
//
// # Migration
//
// MIGRATE <addr> hands the attached session to the daemon at addr with
// zero item loss: the pipeline serializes the session's engine state
// (checkpoint v5, including any buffered out-of-order items) plus its
// counters and clocks, streams them to the peer's ADOPT command, and on
// the peer's acknowledgment marks the session moved. Every later
// request on the source answers "MOVED <addr>"; clients redial and
// re-attach with SESSION <name>. The transfer runs on the session's own
// pipeline goroutine, so it is a consistent cut: items ingested before
// it are in the payload, items after it are refused with MOVED — none
// are lost, which the migration parity battery proves by bit-identical
// output. Other sessions keep streaming throughout.
//
// ADOPT is the server-to-server half (clients never send it): a header
// line, a counters line, and the raw checkpoint bytes. See migrate.go.
//
// # Observability
//
// MetricsHandler serves a Prometheus-format scrape of every session:
// items/pairs/late-drop counters, ingest-latency histogram, queue
// depth, backpressure refusals, index occupancy, and arena block
// gauges. cmd/sssjd exposes it on -metrics. The handler reads
// per-session snapshots published by the pipelines, so a stalled
// session serves its last known state rather than stalling the scrape.
//
// # Ordering, lateness, cluster extensions
//
// ADD timestamps must be non-decreasing across a session's clients;
// ADDNOW sidesteps that by stamping items with the server's monotonic
// clock at ingest. A session with lateness δ > 0 instead runs a bounded
// reorder stage in front of its joiner: items may arrive up to δ behind
// the newest event time seen (per side under a foreign join), are
// re-sorted into (time, ID) order as the watermark W = maxSeen − δ
// passes them, and an item behind W is rejected with "ERR stream: ...
// behind watermark ..." and counted as late=N. WM <timestamp> is the
// event-time heartbeat: it promises every producer's clock reached the
// timestamp, advances the watermark, and answers "WM <watermark>"
// (−Inf while undefined). An ADD or WM that moves the watermark can
// release items buffered by other connections of the same session, and
// the released MATCH lines go to the connection whose request released
// them.
//
// PUT and ADV exist for the cluster coordinator (internal/cluster):
// PUT ingests with a caller-assigned stream ID and explicit side,
// taking coordinates verbatim (no re-normalization — the coordinator
// already normalized once, and renormalizing would perturb bits and
// break cross-wire parity). The coordinator sends it as a frame; the
// text form answers with MATCH lines at full float64 round-trip
// precision instead of ADD's human-oriented %.6f. ADV is the
// engine time barrier carrying the coordinator's watermark. Both are
// rejected on δ > 0 sessions: reordering belongs to exactly one tier,
// and in cluster mode the coordinator owns it. A session created with
// shard=i/N runs as worker i of an N-way dimension-sharded cluster
// group, which lets one daemon host worker shards of several clusters.
package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/stream"
	"sssj/internal/vec"
)

// DefaultSession is the name of the session every connection starts
// attached to. It is built from the server's Config, so a client of the
// old single-join protocol — which never sends SESSION — sees exactly
// the old behavior.
const DefaultSession = "default"

// Config configures a Server. Params/Foreign/Lateness describe
// the default session; sessions created by the SESSION command inherit
// them as defaults and override per-option.
type Config struct {
	Params apss.Params
	// Foreign runs the default session as the two-stream foreign join:
	// connections tag their items with the SIDE command and only
	// cross-side matches are reported. Applies to the default joiner (a
	// custom NewJoiner must build a foreign-gating joiner itself).
	Foreign bool
	// Lateness is the default session's event-time lateness bound δ.
	// With δ > 0 a bounded reorder stage admits items up to δ behind the
	// newest event time seen (per side under Foreign), re-sorting them
	// before the joiner; items behind the watermark are rejected, and
	// the WM command is enabled. 0 (the default) keeps the strict
	// in-order contract. Must be finite and >= 0.
	Lateness float64
	// Queue bounds each session's ingest queue (the backpressure knob);
	// 0 means DefaultQueue. A SESSION command's queue= option overrides
	// it per session.
	Queue int
	// EntryBudget, when > 0, bounds the total live posting entries
	// across all sessions — the shared-arena admission control. An item
	// arriving while the last-sampled total is at or past the budget is
	// refused with BUSY. The total is sampled (every sizeSampleEvery
	// items per session), so the bound has that much slack; entries
	// expire as each session's horizon moves, making BUSY retryable.
	EntryBudget int
	// NewJoiner builds the default session's joiner; defaults to STR-L2.
	NewJoiner func(apss.Params, *metrics.Counters) (core.Joiner, error)
	// NewSessionJoiner, when set, builds the joiner of every session
	// that does not use NewJoiner (i.e. all SESSION-created sessions,
	// plus the default one when NewJoiner is nil). Tests use it to
	// inject instrumented joiners; nil builds the STR engine the
	// session's options describe. Migration-adopted sessions restore
	// their joiner from the transferred checkpoint and bypass both
	// hooks.
	NewSessionJoiner func(name string, opts SessionOptions, c *metrics.Counters) (core.Joiner, error)
	// Logf receives connection-level log lines; nil silences logging.
	Logf func(format string, args ...interface{})
	// Now supplies the clock for ADDNOW; defaults to a monotonic clock
	// with seconds resolution since server start.
	Now func() float64
}

// ingestKind discriminates pipeline requests.
type ingestKind int

const (
	ingestAdd ingestKind = iota
	ingestWM
	ingestAdv
	ingestStats
	ingestSize
	ingestMigrate
)

// ingestReq is one unit of work for a session's ingest pipeline.
type ingestReq struct {
	kind     ingestKind
	t        float64 // ADD/PUT timestamp (ignored when stampNow), or WM/ADV barrier
	stampNow bool
	side     apss.Side // foreign-join side of the item (A on self-join sessions)
	v        vec.Vector
	// explicitID marks a PUT: the item carries the caller-assigned id
	// instead of the session's counter, which advances past it.
	explicitID bool
	id         uint64
	statsJSON  bool   // STATS JSON: render counters as a JSON line
	migrateTo  string // MIGRATE: the peer daemon's address
	// emit receives the item's matches on the pipeline goroutine, as
	// they are found. The submitting handler is parked on reply for the
	// duration, so writing to its connection buffer is race-free: the
	// reply channel send orders the writes before the handler resumes.
	emit apss.Sink
	// reply is the submitting connection's channel (buffered 1, see
	// connState): the pipeline answers every request it dequeues, once.
	reply chan ingestResp
}

// ingestResp is the pipeline's answer.
type ingestResp struct {
	id    uint64
	info  string // STATS/SIZE/MIGRATE payload
	busy  bool   // typed backpressure: queue full or entry budget exhausted
	moved string // session migrated; the peer's address
	err   error
}

// Server is a multi-tenant SSSJ service: a registry of sessions (see
// session.go), each an independent joiner with its own pipeline, plus
// the TCP front end connecting clients to them.
type Server struct {
	cfg Config

	// mu guards the session registry; individual sessions have their
	// own synchronization.
	mu       sync.Mutex
	sessions map[string]*session
	def      *session // the default session, for fresh connections

	lnMu      sync.Mutex
	ln        net.Listener
	conns     map[net.Conn]struct{} // open connections, for shutdown interrupt
	wg        sync.WaitGroup        // connection handlers — the only senders on session queues
	done      chan struct{}
	closeOnce sync.Once
}

// New builds a Server, creates its default session, and starts that
// session's ingest pipeline.
func New(cfg Config) (*Server, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Lateness < 0 || math.IsNaN(cfg.Lateness) || math.IsInf(cfg.Lateness, 0) {
		return nil, fmt.Errorf("server: Lateness must be finite and >= 0, got %v", cfg.Lateness)
	}
	if cfg.Queue < 0 {
		return nil, fmt.Errorf("server: Queue must be >= 0, got %d", cfg.Queue)
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	s := &Server{
		cfg:      cfg,
		done:     make(chan struct{}),
		sessions: make(map[string]*session),
		conns:    make(map[net.Conn]struct{}),
	}
	if cfg.Now == nil {
		start := time.Now()
		s.cfg.Now = func() float64 { return time.Since(start).Seconds() }
	}
	var mk func(*session) error
	if nj := cfg.NewJoiner; nj != nil {
		mk = func(se *session) error {
			j, err := nj(cfg.Params, &se.counters)
			if err != nil {
				return err
			}
			se.joiner = j
			return nil
		}
	}
	def, err := s.newSession(DefaultSession, optionsFor(s.cfg), mk)
	if err != nil {
		return nil, err
	}
	s.def = def
	return s, nil
}

// Serve accepts connections on ln until Close. It returns nil after a
// clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				s.wg.Wait()
				return nil
			default:
				return err
			}
		}
		// Register the handler under lnMu so Close — which acquires the
		// same lock after closing done — observes either the done check
		// failing here or the registration in wg.Wait, never a handler
		// starting after the pipelines shut down.
		s.lnMu.Lock()
		select {
		case <-s.done:
			s.lnMu.Unlock()
			conn.Close()
			continue // the next Accept fails; the loop exits above
		default:
		}
		s.wg.Add(1)
		s.conns[conn] = struct{}{}
		s.lnMu.Unlock()
		go func() {
			defer s.wg.Done()
			defer func() {
				s.lnMu.Lock()
				delete(s.conns, conn)
				s.lnMu.Unlock()
			}()
			s.handle(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, interrupts connections blocked on network I/O
// (an idle client must not hold shutdown hostage), waits for in-flight
// commands to drain — every item that reached a session queue is
// processed and answered, though a reply write can fail once its
// connection is torn down — and then stops every session pipeline.
// Close is idempotent; calls after the first return nil without
// re-waiting.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() { err = s.close() })
	return err
}

func (s *Server) close() error {
	close(s.done)
	s.lnMu.Lock() // barrier against a handler registering after done
	ln := s.ln
	for conn := range s.conns {
		conn.SetDeadline(time.Now()) // wake handlers parked in Read/Write
	}
	s.lnMu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait() // handlers — the only queue senders and session creators — are gone…
	for _, se := range s.sessionList() {
		close(se.reqs) // …so this is safe, and each pipeline drains what remains
		<-se.pipeDone
	}
	return err
}

// connState is one connection's protocol state — the session it is
// attached to and its current foreign-join side — plus everything a
// request needs that would otherwise be made per item: the reply channel
// the session pipeline answers on and the three match sinks writing into
// the connection's buffer. One request is in flight per connection, so
// one of each is enough.
type connState struct {
	sess  *session
	side  apss.Side
	w     *bufio.Writer
	reply chan ingestResp
	line  []byte // readLine's buffer
	// writeErr latches the first failed match write. It is never returned
	// to the joiner, whose processing must not depend on a client's
	// socket; the Flush in handle meets the same error. The sinks run on
	// the pipeline goroutine while the handler is parked on reply, and
	// that channel orders their writes before the handler's.
	writeErr                          error
	matchText, matchExact, matchFrame apss.Sink
}

func newConnState(sess *session, w *bufio.Writer) *connState {
	st := &connState{sess: sess, side: apss.SideA, w: w, reply: make(chan ingestResp, 1)}
	st.matchText = func(m apss.Match) error { return st.emitText(m, false) }
	st.matchExact = func(m apss.Match) error { return st.emitText(m, true) }
	st.matchFrame = st.emitFrame
	return st
}

// submit sends one request to the attached session's pipeline and waits
// for its answer (see session.submit).
func (st *connState) submit(req ingestReq, wait bool) ingestResp {
	req.reply = st.reply
	return st.sess.submit(req, wait)
}

// handle runs one client connection: item frames and text lines, told
// apart by their first byte.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	s.cfg.Logf("client %s connected", conn.RemoteAddr())
	r := bufio.NewReaderSize(conn, connReadBuf)
	w := bufio.NewWriter(conn)
	st := newConnState(s.def, w)
	for {
		head, err := r.Peek(1)
		if err != nil {
			break
		}
		var quit bool
		if head[0] == frameMarker {
			quit = st.serveFrame(r)
		} else {
			var line []byte
			line, err = readLine(r, &st.line)
			if err == ErrLineTooLong {
				fmt.Fprintln(w, "ERR line too long")
				err = nil
			} else if trimmed := strings.TrimSpace(string(line)); trimmed != "" {
				quit = s.dispatch(r, trimmed, st)
			}
		}
		if w.Flush() != nil || quit || err != nil {
			break
		}
		select {
		case <-s.done:
			return
		default:
		}
	}
	s.cfg.Logf("client %s disconnected", conn.RemoteAddr())
}

// writeRespErr writes the error-class replies (BUSY/MOVED/ERR) for
// resp, reporting whether one was written.
func writeRespErr(w *bufio.Writer, sess *session, resp ingestResp) bool {
	switch {
	case resp.busy:
		fmt.Fprintf(w, "BUSY %s\n", sess.name)
	case resp.moved != "":
		fmt.Fprintf(w, "MOVED %s\n", resp.moved)
	case resp.err != nil:
		fmt.Fprintf(w, "ERR %v\n", resp.err)
	default:
		return false
	}
	return true
}

// dispatch executes one protocol line, reporting whether to close. r is
// the connection's reader, consumed past the line only by ADOPT's
// binary payload.
func (s *Server) dispatch(r *bufio.Reader, line string, st *connState) (quit bool) {
	w := st.w
	cmd := line
	rest := ""
	if i := strings.IndexByte(line, ' '); i >= 0 {
		cmd, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	sess := st.sess
	switch strings.ToUpper(cmd) {
	case "ADD":
		st.cmdAdd(rest, false)
	case "ADDNOW":
		st.cmdAdd(rest, true)
	case "PUT":
		st.cmdPut(rest)
	case "ADV":
		if sess.reo != nil {
			fmt.Fprintln(w, "ERR ADV requires a strict-order session (lateness 0); use WM")
			return false
		}
		t, err := parseTime(rest)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		st.cmdAdv(t)
	case "SIDE":
		if !sess.opts.Foreign {
			fmt.Fprintln(w, "ERR SIDE requires a foreign-join session")
			return false
		}
		switch strings.ToUpper(rest) {
		case "A":
			st.side = apss.SideA
		case "B":
			st.side = apss.SideB
		default:
			fmt.Fprintf(w, "ERR bad side %q, want A or B\n", rest)
			return false
		}
		fmt.Fprintf(w, "SIDE %v\n", st.side)
	case "WM":
		if sess.reo == nil {
			fmt.Fprintln(w, "ERR WM requires a bounded-lateness session (lateness > 0)")
			return false
		}
		t, err := parseTime(rest)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		st.cmdWM(t)
	case "SESSION":
		s.cmdSession(w, rest, st)
	case "SESSIONS":
		names := make([]string, 0, 8)
		for _, se := range s.sessionList() {
			names = append(names, se.name)
		}
		fmt.Fprintf(w, "SESSIONS %s\n", strings.Join(names, " "))
	case "MIGRATE":
		if rest == "" {
			fmt.Fprintln(w, "ERR MIGRATE needs <addr>")
			return false
		}
		resp := st.submit(ingestReq{kind: ingestMigrate, migrateTo: rest}, true)
		if writeRespErr(w, sess, resp) {
			return false
		}
		fmt.Fprintf(w, "MIGRATED %s\n", resp.info)
	case "ADOPT":
		s.cmdAdopt(r, w, rest)
	case "STATS":
		resp := st.submit(ingestReq{kind: ingestStats, statsJSON: strings.EqualFold(rest, "JSON")}, true)
		if writeRespErr(w, sess, resp) {
			return false
		}
		fmt.Fprintf(w, "STATS %s\n", resp.info)
	case "SIZE":
		resp := st.submit(ingestReq{kind: ingestSize}, true)
		if writeRespErr(w, sess, resp) {
			return false
		}
		fmt.Fprintf(w, "SIZE %s\n", resp.info)
	case "PING":
		fmt.Fprintln(w, "PONG")
	case "QUIT":
		fmt.Fprintln(w, "BYE")
		return true
	default:
		fmt.Fprintf(w, "ERR unknown command %q\n", cmd)
	}
	return false
}

// cmdSession attaches the connection to a session: an existing one when
// called bare, a newly created one when options follow the name.
func (s *Server) cmdSession(w *bufio.Writer, rest string, st *connState) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		fmt.Fprintln(w, "ERR SESSION needs <name> [<k>=<v> ...]")
		return
	}
	name := fields[0]
	var sess *session
	if len(fields) == 1 {
		var ok bool
		if sess, ok = s.lookupSession(name); !ok {
			fmt.Fprintf(w, "ERR no session %q (create one: SESSION %s theta=... )\n", name, name)
			return
		}
	} else {
		opts, err := parseSessionOptions(optionsFor(s.cfg), fields[1:])
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		if sess, err = s.newSession(name, opts, nil); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
	}
	st.sess = sess
	fmt.Fprintf(w, "SESSION %s\n", name)
}

// cmdAdd parses one text ADD/ADDNOW on the connection goroutine and
// submits it to the session pipeline on the connection's current side.
// From the ingestReq on it shares everything with the item frames (see
// serveFrame): one submit, one serveAdd.
func (st *connState) cmdAdd(rest string, stampNow bool) {
	w := st.w
	fields := strings.Fields(rest)
	var t float64
	if !stampNow {
		if len(fields) == 0 {
			fmt.Fprintln(w, "ERR ADD needs a timestamp")
			return
		}
		var err error
		if t, err = parseTime(fields[0]); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fields = fields[1:]
	}
	v, err := parseCoords(fields, true)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	st.textResp(st.submit(ingestReq{kind: ingestAdd, t: t, stampNow: stampNow, side: st.side, v: v, emit: st.matchText}, false))
}

// cmdPut parses and submits a text cluster PUT: explicit stream ID,
// explicit side, and coordinates taken verbatim (no re-normalization —
// the sender already normalized, and %g round-trips float64 exactly).
// Matches stream back at full precision.
func (st *connState) cmdPut(rest string) {
	w := st.w
	fields := strings.Fields(rest)
	if len(fields) < 3 {
		fmt.Fprintln(w, "ERR PUT needs <id> <A|B> <timestamp> <dim>:<val>...")
		return
	}
	id, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		fmt.Fprintf(w, "ERR bad id %q\n", fields[0])
		return
	}
	side, err := st.sess.putSide(fields[1])
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	t, err := parseTime(fields[2])
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	v, err := parseCoords(fields[3:], false)
	if err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	st.textResp(st.submit(ingestReq{kind: ingestAdd, t: t, side: side, v: v, explicitID: true, id: id, emit: st.matchExact}, false))
}

// textResp closes a text item verb's reply with OK or the typed refusal.
func (st *connState) textResp(resp ingestResp) {
	if !writeRespErr(st.w, st.sess, resp) {
		fmt.Fprintf(st.w, "OK %d\n", resp.id)
	}
}

// putSide decodes a PUT's side token and applies the two session rules
// of PUT, for the text verb and the frame alike.
func (s *session) putSide(tok string) (apss.Side, error) {
	if s.reo != nil {
		return 0, errors.New("PUT requires a strict-order session (lateness 0)")
	}
	switch tok {
	case "A", "a":
		return apss.SideA, nil
	case "B", "b":
		if !s.opts.Foreign {
			return 0, errors.New("side B requires a foreign-join session")
		}
		return apss.SideB, nil
	}
	return 0, fmt.Errorf("bad side %q, want A or B", tok)
}

// cmdAdv submits an engine time barrier; released matches (window
// flushes) stream back at full precision before the echo.
func (st *connState) cmdAdv(t float64) {
	resp := st.submit(ingestReq{kind: ingestAdv, t: t, emit: st.matchExact}, true)
	if writeRespErr(st.w, st.sess, resp) {
		return
	}
	fmt.Fprintf(st.w, "ADV %s\n", resp.info)
}

// cmdWM submits a WM heartbeat. Matches of items the advancing
// watermark releases are written to this connection, like cmdAdd's.
func (st *connState) cmdWM(t float64) {
	resp := st.submit(ingestReq{kind: ingestWM, t: t, emit: st.matchText}, true)
	if writeRespErr(st.w, st.sess, resp) {
		return
	}
	fmt.Fprintf(st.w, "WM %s\n", resp.info)
}

// emitText is the text form of the connection's match sink: one MATCH
// line per match, written into the connection buffer on the pipeline
// goroutine. exact selects full float64 round-trip formatting — text PUT
// and ADV, where ADD's human-oriented %.6f would break bit-identical
// parity across the wire.
func (st *connState) emitText(m apss.Match, exact bool) error {
	if st.writeErr != nil {
		return nil
	}
	if exact {
		_, st.writeErr = fmt.Fprintf(st.w, "MATCH %d %d %s %s %s\n", m.X, m.Y,
			strconv.FormatFloat(m.Sim, 'g', -1, 64),
			strconv.FormatFloat(m.Dot, 'g', -1, 64),
			strconv.FormatFloat(m.DT, 'g', -1, 64))
	} else {
		_, st.writeErr = fmt.Fprintf(st.w, "MATCH %d %d %.6f %.6f %.6f\n", m.X, m.Y, m.Sim, m.Dot, m.DT)
	}
	return nil
}

// parseTime parses an item timestamp; NaN and ±Inf, which ParseFloat
// accepts, are refused like any other unusable token.
func parseTime(tok string) (float64, error) {
	t, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("bad timestamp %q", tok)
	}
	return t, stream.FiniteTime(t)
}

// parseCoords parses "dim:val" fields into a vector — normalized for
// ADD, verbatim for PUT, whose values are already normalized and would
// change bits if normalized again.
func parseCoords(fields []string, normalize bool) (vec.Vector, error) {
	dims := make([]uint32, 0, len(fields))
	vals := make([]float64, 0, len(fields))
	for _, f := range fields {
		colon := strings.IndexByte(f, ':')
		if colon <= 0 || colon == len(f)-1 {
			return vec.Vector{}, fmt.Errorf("bad coordinate %q", f)
		}
		d, err := strconv.ParseUint(f[:colon], 10, 32)
		if err != nil {
			return vec.Vector{}, fmt.Errorf("bad dimension %q", f[:colon])
		}
		val, err := strconv.ParseFloat(f[colon+1:], 64)
		if err != nil {
			return vec.Vector{}, fmt.Errorf("bad value %q", f[colon+1:])
		}
		dims = append(dims, uint32(d))
		vals = append(vals, val)
	}
	return vec.Owned(dims, vals, normalize)
}

// Client is a minimal client for the server protocol.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	mu   sync.Mutex
	// ioTimeout bounds each request round-trip; 0 means no deadline.
	ioTimeout time.Duration
	frame     []byte // the item frame being sent, reused
	line      []byte // readLine's buffer
}

// Dialer configures connection establishment and per-request deadlines.
// The zero value matches plain Dial: no timeouts, no retries.
type Dialer struct {
	// DialTimeout bounds each connection attempt; 0 means no limit.
	DialTimeout time.Duration
	// IOTimeout is applied as a connection deadline at the start of every
	// request round-trip, so a wedged server surfaces as a timeout error
	// instead of a hang; 0 disables deadlines.
	IOTimeout time.Duration
	// Retries is the number of additional dial attempts after a failure —
	// the coordinator's tolerance for workers that are still binding
	// their listeners. 0 means a single attempt.
	Retries int
	// Backoff is the sleep before the first retry, doubling each attempt;
	// defaults to 50ms when Retries > 0.
	Backoff time.Duration
}

// Dial connects with the configured timeout, retrying transient dial
// failures with exponential backoff.
func (d Dialer) Dial(addr string) (*Client, error) {
	backoff := d.Backoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; attempt <= d.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		conn, err := net.DialTimeout("tcp", addr, d.DialTimeout)
		if err == nil {
			c := NewClient(conn)
			c.ioTimeout = d.IOTimeout
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("server: dial %s failed after %d attempts: %w", addr, d.Retries+1, lastErr)
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReader(conn)}
}

// beginRequest arms the per-request I/O deadline. Callers hold c.mu.
func (c *Client) beginRequest() {
	if c.ioTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.ioTimeout))
	}
}

// respError decodes the protocol's error-class replies — ERR text,
// typed BUSY backpressure, typed MOVED redirects — or returns nil when
// resp is not one.
func respError(resp string) error {
	switch {
	case strings.HasPrefix(resp, "ERR "):
		return errors.New(resp[4:])
	case strings.HasPrefix(resp, "BUSY "):
		return &BusyError{Session: resp[5:]}
	case strings.HasPrefix(resp, "MOVED "):
		return &MovedError{Addr: resp[6:]}
	}
	return nil
}

// Add submits a timestamped item on the connection's current side and
// returns its stream ID and matches — exact similarities, since request
// and reply are item frames (the text ADD rounds them to %.6f). The
// server normalizes v. A full session queue surfaces as a *BusyError
// (errors.Is ErrBusy); a migrated session as a *MovedError (errors.Is
// ErrMoved).
func (c *Client) Add(t float64, v vec.Vector) (uint64, []apss.Match, error) {
	return c.item(frameAdd, apss.SideA, 0, t, v)
}

// AddNow submits an item stamped with the server's clock.
func (c *Client) AddNow(v vec.Vector) (uint64, []apss.Match, error) {
	return c.item(frameAddNow, apss.SideA, 0, 0, v)
}

// Put submits an item with a caller-assigned stream ID, side, and
// verbatim (pre-normalized) coordinates — the cluster coordinator's
// ingest path. Matches come back at full float64 precision.
func (c *Client) Put(id uint64, side apss.Side, t float64, v vec.Vector) ([]apss.Match, error) {
	got, ms, err := c.item(framePut, side, id, t, v)
	return ms, putAck(id, got, err)
}

// Advance sends an ADV engine time barrier: the promise that no item
// with Time < t will ever be submitted. It returns the matches the
// barrier released (window-mode flushes; empty for plain STR).
func (c *Client) Advance(t float64) ([]apss.Match, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beginRequest()
	if _, err := fmt.Fprintf(c.conn, "ADV %s\n", strconv.FormatFloat(t, 'g', -1, 64)); err != nil {
		return nil, err
	}
	var matches []apss.Match
	for {
		resp, err := c.readLine()
		if err != nil {
			return nil, err
		}
		switch {
		case strings.HasPrefix(resp, "MATCH "):
			m, err := parseMatchLine(resp)
			if err != nil {
				return nil, err
			}
			matches = append(matches, m)
		case strings.HasPrefix(resp, "ADV "):
			return matches, nil
		default:
			if err := respError(resp); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("server: unexpected response %q", resp)
		}
	}
}

// readLine reads one trimmed response line. Callers hold c.mu.
func (c *Client) readLine() (string, error) {
	resp, err := readLine(c.r, &c.line)
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(resp)), nil
}

// parseMatchLine decodes a MATCH response at full precision.
func parseMatchLine(resp string) (apss.Match, error) {
	f := strings.Fields(resp)
	if len(f) != 6 || f[0] != "MATCH" {
		return apss.Match{}, fmt.Errorf("server: bad match line %q", resp)
	}
	var m apss.Match
	var err error
	if m.X, err = strconv.ParseUint(f[1], 10, 64); err != nil {
		return apss.Match{}, fmt.Errorf("server: bad match line %q: %w", resp, err)
	}
	if m.Y, err = strconv.ParseUint(f[2], 10, 64); err != nil {
		return apss.Match{}, fmt.Errorf("server: bad match line %q: %w", resp, err)
	}
	if m.Sim, err = strconv.ParseFloat(f[3], 64); err != nil {
		return apss.Match{}, fmt.Errorf("server: bad match line %q: %w", resp, err)
	}
	if m.Dot, err = strconv.ParseFloat(f[4], 64); err != nil {
		return apss.Match{}, fmt.Errorf("server: bad match line %q: %w", resp, err)
	}
	if m.DT, err = strconv.ParseFloat(f[5], 64); err != nil {
		return apss.Match{}, fmt.Errorf("server: bad match line %q: %w", resp, err)
	}
	return m, nil
}

// Watermark sends a WM event-time heartbeat (bounded-lateness sessions
// only): a promise that every producer's clock has reached t. It
// returns the server's watermark after the heartbeat — −Inf while
// undefined — along with the matches of any items the advancing
// watermark released.
func (c *Client) Watermark(t float64) (float64, []apss.Match, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beginRequest()
	if _, err := fmt.Fprintf(c.conn, "WM %g\n", t); err != nil {
		return 0, nil, err
	}
	var matches []apss.Match
	for {
		resp, err := c.readLine()
		if err != nil {
			return 0, nil, err
		}
		switch {
		case strings.HasPrefix(resp, "MATCH "):
			m, err := parseMatchLine(resp)
			if err != nil {
				return 0, nil, err
			}
			matches = append(matches, m)
		case strings.HasPrefix(resp, "WM "):
			wm, err := strconv.ParseFloat(resp[3:], 64)
			if err != nil {
				return 0, nil, fmt.Errorf("server: bad watermark line %q", resp)
			}
			return wm, matches, nil
		default:
			if err := respError(resp); err != nil {
				return 0, nil, err
			}
			return 0, nil, fmt.Errorf("server: unexpected response %q", resp)
		}
	}
}

// Side sets the connection's foreign-join side for subsequent Add and
// AddNow calls. The attached session must be running a foreign join;
// new connections start on side A.
func (c *Client) Side(side apss.Side) error {
	_, err := c.simple("SIDE "+side.String(), "SIDE "+side.String())
	return err
}

// Session attaches the connection to the named session. With no opts it
// must already exist (the re-attach path after a migration); with
// "k=v" option tokens — theta=0.7, index=INV, join=foreign, lateness=3,
// queue=128, shard=0/2 — the session is created (an error if
// the name is taken) and the connection attached to it.
func (c *Client) Session(name string, opts ...string) error {
	cmd := "SESSION " + name
	if len(opts) > 0 {
		cmd += " " + strings.Join(opts, " ")
	}
	_, err := c.simple(cmd, "SESSION "+name)
	return err
}

// Sessions lists the server's session names, sorted.
func (c *Client) Sessions() ([]string, error) {
	payload, err := c.simple("SESSIONS", "SESSIONS")
	if err != nil {
		return nil, err
	}
	return strings.Fields(payload), nil
}

// Migrate hands the attached session to the daemon at addr (live
// migration; see the package comment). After it returns, requests on
// this server answer *MovedError — reconnect to addr and re-attach with
// Session.
func (c *Client) Migrate(addr string) error {
	_, err := c.simple("MIGRATE "+addr, "MIGRATED "+addr)
	return err
}

// Stats fetches the attached session's counter line.
func (c *Client) Stats() (string, error) { return c.simple("STATS", "STATS ") }

// StatsJSON fetches the attached session's counters via STATS JSON and
// decodes them — the coordinator's aggregation path, immune to
// text-format drift.
func (c *Client) StatsJSON() (metrics.Counters, error) {
	payload, err := c.simple("STATS JSON", "STATS ")
	if err != nil {
		return metrics.Counters{}, err
	}
	var counters metrics.Counters
	if err := json.Unmarshal([]byte(payload), &counters); err != nil {
		return metrics.Counters{}, fmt.Errorf("server: bad STATS JSON payload %q: %w", payload, err)
	}
	return counters, nil
}

// Size fetches the attached session's index-occupancy line.
func (c *Client) Size() (string, error) { return c.simple("SIZE", "SIZE ") }

// SizeInfo fetches and decodes the attached session's index occupancy.
func (c *Client) SizeInfo() (streaming.SizeInfo, error) {
	payload, err := c.Size()
	if err != nil {
		return streaming.SizeInfo{}, err
	}
	var sz streaming.SizeInfo
	if _, err := fmt.Sscanf(payload, "entries=%d residuals=%d lists=%d tracked=%d",
		&sz.PostingEntries, &sz.Residuals, &sz.Lists, &sz.TrackedDims); err != nil {
		return streaming.SizeInfo{}, fmt.Errorf("server: bad SIZE payload %q: %w", payload, err)
	}
	return sz, nil
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	_, err := c.simple("PING", "PONG")
	return err
}

func (c *Client) simple(cmd, prefix string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.beginRequest()
	if _, err := fmt.Fprintln(c.conn, cmd); err != nil {
		return "", err
	}
	resp, err := c.readLine()
	if err != nil {
		return "", err
	}
	if err := respError(resp); err != nil {
		return "", err
	}
	if !strings.HasPrefix(resp, prefix) {
		return "", fmt.Errorf("server: unexpected response %q", resp)
	}
	return strings.TrimPrefix(resp, prefix), nil
}

// Close sends QUIT and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintln(c.conn, "QUIT")
	return c.conn.Close()
}
