// Command sssjd serves a shared streaming similarity self-join over TCP
// (see internal/server for the line protocol). Multiple producers can
// feed one stream and receive matches online:
//
//	sssjd -addr :7407 -theta 0.7 -lambda 0.01 &
//	printf 'ADD 0 1:1 2:1\nADD 1 1:1 2:1\nQUIT\n' | nc localhost 7407
//
// With -join foreign the server runs the two-stream foreign join:
// connections pick their stream with "SIDE A" / "SIDE B" (default A)
// and only cross-side matches are reported:
//
//	sssjd -join foreign &
//	printf 'ADD 0 1:1\nSIDE B\nADD 1 1:1\nQUIT\n' | nc localhost 7407
//
// With -lateness δ the server tolerates ADDs up to δ behind the newest
// timestamp (a bounded reorder stage re-sorts them for the join) and
// accepts the WM event-time heartbeat; -window tumbling:SIZE or
// -window sliding:SIZE replaces exponential decay with a window join
// (-lambda is then ignored).
//
// With -shard i/N the daemon runs as cluster worker i of N: its engine
// stores only dimensions d with d mod N == i, and a coordinator (sssjc)
// feeds it over the PUT/ADV protocol extensions. Worker daemons keep the
// strict ordering contract, so -shard excludes -lateness and -window.
//
// The daemon is multi-tenant: the flags above configure the "default"
// session, and clients create further independent joins with the
// SESSION command ("SESSION fast theta=0.9 index=INV"), each with its
// own options, counters, and bounded ingest queue (-queue; a full queue
// answers the typed BUSY backpressure reply, and -entry-budget bounds
// the total live posting entries across all sessions). Sessions can
// self-tune: index=auto runs the online engine selector (INV → L2 →
// L2AP as the stream warrants), rerank=docfreq|maxval maintains the
// dimension order online instead of a warmup, and cadence=N sets the
// review interval — the reported pairs are identical to a static
// session's, and /metrics exposes the current engine and rerank count
// per session. MIGRATE <addr> hands a session to a peer daemon live,
// with zero item loss. With -metrics ADDR the daemon serves a
// Prometheus-format scrape of every session on http://ADDR/metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"sssj/internal/apss"
	"sssj/internal/core"
	"sssj/internal/index/static"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/server"
)

// parseShard parses the -shard flag: "" (standalone), or "i/N" selecting
// cluster worker i of N.
func parseShard(s string) (streaming.Shard, error) {
	if s == "" {
		return streaming.Shard{}, nil
	}
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return streaming.Shard{}, fmt.Errorf(`bad -shard %q, want "i/N"`, s)
	}
	id, err := strconv.Atoi(s[:slash])
	if err != nil {
		return streaming.Shard{}, fmt.Errorf("bad shard id %q", s[:slash])
	}
	n, err := strconv.Atoi(s[slash+1:])
	if err != nil {
		return streaming.Shard{}, fmt.Errorf("bad shard count %q", s[slash+1:])
	}
	if n < 1 || id < 0 || id >= n {
		return streaming.Shard{}, fmt.Errorf("bad -shard %q: want 0 <= i < N", s)
	}
	return streaming.Shard{ID: id, N: n}, nil
}

// parseWindow parses the -window flag: "" (decay), or "KIND:SIZE" with
// KIND tumbling or sliding and SIZE a positive finite duration.
func parseWindow(s string) (kind string, size float64, err error) {
	if s == "" {
		return "", 0, nil
	}
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return "", 0, fmt.Errorf(`bad -window %q, want "tumbling:SIZE" or "sliding:SIZE"`, s)
	}
	kind = s[:colon]
	if kind != "tumbling" && kind != "sliding" {
		return "", 0, fmt.Errorf("unknown window kind %q, want tumbling or sliding", kind)
	}
	size, err = strconv.ParseFloat(s[colon+1:], 64)
	if err != nil || !(size > 0) || math.IsInf(size, 1) {
		return "", 0, fmt.Errorf("bad window size %q, want a positive finite number", s[colon+1:])
	}
	return kind, size, nil
}

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sssjd:", err)
		os.Exit(1)
	}
}

// run starts the daemon; ready (if non-nil) receives the bound address
// once listening, which tests use to connect.
func run(args []string, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("sssjd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:7407", "listen address")
		theta    = fs.Float64("theta", 0.7, "similarity threshold in (0,1]")
		lambda   = fs.Float64("lambda", 0.01, "time-decay factor > 0 (ignored with -window)")
		index    = fs.String("index", "L2", "streaming index: L2, INV, or L2AP (plus AP with -window tumbling)")
		quiet    = fs.Bool("quiet", false, "suppress connection logging")
		join     = fs.String("join", "self", "join mode: self, or foreign (clients tag streams with SIDE A|B)")
		lateness = fs.Float64("lateness", 0, "event-time lateness bound: accept ADDs up to this far behind the newest timestamp, and enable WM")
		window   = fs.String("window", "", `window mode replacing exponential decay: "tumbling:SIZE" or "sliding:SIZE"`)
		shardArg = fs.String("shard", "", `run as cluster worker "i/N": index only dimensions d with d mod N == i (fed by sssjc)`)
		queue    = fs.Int("queue", 0, "per-session ingest queue bound; a full queue answers BUSY (0 = default 64)")
		budget   = fs.Int("entry-budget", 0, "shared index budget: total live posting entries across sessions before ingest answers BUSY (0 = unlimited)")
		metAddr  = fs.String("metrics", "", `HTTP listen address for the Prometheus /metrics endpoint (e.g. "127.0.0.1:9407"; empty = disabled)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	shard, err := parseShard(*shardArg)
	if err != nil {
		return err
	}
	if shard != (streaming.Shard{}) {
		if *window != "" {
			return fmt.Errorf("-shard runs the streaming cluster worker engine; -window is not supported")
		}
		if *lateness > 0 {
			return fmt.Errorf("-shard workers keep strict ordering (the coordinator owns reordering); -lateness must be 0")
		}
	}
	var foreign bool
	switch *join {
	case "self":
	case "foreign":
		foreign = true
	default:
		return fmt.Errorf("unknown join mode %q", *join)
	}
	winKind, winSize, err := parseWindow(*window)
	if err != nil {
		return err
	}
	params := apss.Params{Theta: *theta, Lambda: *lambda}
	if winKind != "" {
		// Window joins have no decay; synthesize the λ that makes the
		// horizon equal the window size so the shared Params invariants
		// hold (mirrors the public API's paramsFor).
		if *theta == 1 {
			params.Lambda = 1 / winSize
		} else {
			params.Lambda = math.Log(1 / *theta) / winSize
		}
	}
	logger := log.New(stderr, "sssjd: ", log.LstdFlags)
	cfg := server.Config{
		Params:      params,
		Foreign:     foreign,
		Lateness:    *lateness,
		Queue:       *queue,
		EntryBudget: *budget,
	}
	switch winKind {
	case "":
		var kind streaming.Kind
		switch *index {
		case "L2":
			kind = streaming.L2
		case "INV":
			kind = streaming.INV
		case "L2AP":
			kind = streaming.L2AP
		default:
			return fmt.Errorf("unknown index %q", *index)
		}
		cfg.NewJoiner = func(p apss.Params, c *metrics.Counters) (core.Joiner, error) {
			return core.NewSTRFull(kind, p, streaming.Options{Counters: c, Foreign: foreign, Shard: shard})
		}
	case "tumbling":
		var kind static.Kind
		switch *index {
		case "L2":
			kind = static.L2
		case "INV":
			kind = static.INV
		case "L2AP":
			kind = static.L2AP
		case "AP":
			kind = static.AP
		default:
			return fmt.Errorf("unknown index %q", *index)
		}
		cfg.NewJoiner = func(p apss.Params, c *metrics.Counters) (core.Joiner, error) {
			return core.NewTumbling(kind, p.Theta, winSize, c, foreign)
		}
	case "sliding":
		var kind streaming.Kind
		switch *index {
		case "L2":
			kind = streaming.L2
		case "INV":
			kind = streaming.INV
		default:
			return fmt.Errorf("-window sliding runs on index L2 or INV, not %q", *index)
		}
		cfg.NewJoiner = func(p apss.Params, c *metrics.Counters) (core.Joiner, error) {
			return core.NewSTRFull(kind, p, streaming.Options{
				Counters: c,
				Foreign:  foreign,
				Kernel:   apss.SlidingWindow{Tau: winSize},
			})
		}
	}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("listening on %s (theta=%g lambda=%g index=%s tau=%.3g join=%s lateness=%g window=%q shard=%q)",
		ln.Addr(), *theta, params.Lambda, *index, cfg.Params.Horizon(), *join, *lateness, *window, *shardArg)
	if *metAddr != "" {
		mln, err := net.Listen("tcp", *metAddr)
		if err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", s.MetricsHandler())
		msrv := &http.Server{Handler: mux}
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				logger.Printf("metrics server: %v", err)
			}
		}()
		defer msrv.Close()
		logger.Printf("metrics on %s", mln.Addr())
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logger.Printf("shutting down")
		s.Close()
	}()
	return s.Serve(ln)
}
