package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"sssj/internal/core"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/stream"
)

// Live migration moves one session to a peer daemon with zero item
// loss. The handshake is one server-to-server exchange, initiated by
// the source's session pipeline (so it is a consistent cut of the
// session's stream — the pipeline serves nothing else while it runs):
//
//	source → target:  ADOPT <name> <nextID> <lastT> <begun> <nbytes> <k=v options...>\n
//	source → target:  <counters JSON>\n
//	source → target:  <nbytes of checkpoint-v5 payload>
//	target → source:  ADOPTED <name>    (or ERR <reason>; the source then aborts)
//
// The payload is exactly what SaveIndexFull writes: the engine state
// plus, for bounded-lateness sessions, the reorder stage with its
// still-buffered items — in-flight items ride along instead of being
// lost. Counters travel in the JSON line because checkpoints
// deliberately do not carry them, and the migration battery requires
// the target's counters to keep counting from the source's values.
//
// Only after the target acknowledges does the source commit: it marks
// the session moved (every later request answers "MOVED <addr>") and
// releases its joiner. On any error the source session is untouched and
// keeps serving — migration is abort-safe.

// migrateDialTimeout bounds the source's connection attempt;
// migrateIOTimeout bounds the whole transfer, sized for checkpoint
// payloads in the hundreds of megabytes on a slow link.
const (
	migrateDialTimeout = 10 * time.Second
	migrateIOTimeout   = 120 * time.Second
)

// serveMigrate executes MIGRATE on the session pipeline goroutine.
func (s *session) serveMigrate(req ingestReq) ingestResp {
	if s.name == DefaultSession {
		// Every daemon owns a "default" session, so the name always
		// collides on the target. Tenants that need mobility create named
		// sessions.
		return ingestResp{err: fmt.Errorf("cannot migrate the default session; create a named session")}
	}
	saver, ok := s.joiner.(interface {
		SaveIndexFull(w io.Writer, et *streaming.EventTimeState) error
	})
	if !ok {
		return ingestResp{err: fmt.Errorf("session %q: joiner does not support checkpointing", s.name)}
	}
	var et *streaming.EventTimeState
	if s.reo != nil {
		st := s.reo.State()
		et = &st
	}
	var payload bytes.Buffer
	if err := saver.SaveIndexFull(&payload, et); err != nil {
		return ingestResp{err: fmt.Errorf("checkpoint session %q: %w", s.name, err)}
	}
	countersLine, err := marshalCounters(&s.counters)
	if err != nil {
		return ingestResp{err: err}
	}

	conn, err := net.DialTimeout("tcp", req.migrateTo, migrateDialTimeout)
	if err != nil {
		return ingestResp{err: fmt.Errorf("migrate dial %s: %w", req.migrateTo, err)}
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(migrateIOTimeout))
	bw := bufio.NewWriter(conn)
	begun := "0"
	if s.begun {
		begun = "1"
	}
	fmt.Fprintf(bw, "ADOPT %s %d %s %s %d %s\n", s.name, s.nextID,
		strconv.FormatFloat(s.lastT, 'g', -1, 64), begun, payload.Len(), s.opts.String())
	fmt.Fprintln(bw, countersLine)
	bw.Write(payload.Bytes())
	if err := bw.Flush(); err != nil {
		return ingestResp{err: fmt.Errorf("migrate to %s: %w", req.migrateTo, err)}
	}
	// The reply goes through the 1 MiB-capped readLine: a peer that never
	// sends a newline costs a bounded buffer, not one that grows until the
	// deadline, and the session stays local (errors.Is ErrLineTooLong).
	var ackBuf []byte
	ack, err := readLine(bufio.NewReader(conn), &ackBuf)
	if err != nil {
		return ingestResp{err: fmt.Errorf("migrate to %s: reading acknowledgment: %w", req.migrateTo, err)}
	}
	resp := strings.TrimSpace(string(ack))
	if resp != "ADOPTED "+s.name {
		if strings.HasPrefix(resp, "ERR ") {
			return ingestResp{err: fmt.Errorf("migrate to %s: peer refused: %s", req.migrateTo, resp[4:])}
		}
		return ingestResp{err: fmt.Errorf("migrate to %s: unexpected acknowledgment %q", req.migrateTo, resp)}
	}
	// Committed: the peer owns the session now. Latch the redirect and
	// release the engine; serve answers MOVED before touching any of it.
	addr := req.migrateTo
	s.moved.Store(&addr)
	s.joiner, s.sinkJoiner, s.reo = nil, nil, nil
	s.liveEntries.Store(0)
	return ingestResp{info: req.migrateTo}
}

// cmdAdopt executes the target half of a migration on the connection
// goroutine: parse the header, read the counters line and the binary
// payload off the connection reader, restore the engine, and register
// the session. The new session's pipeline starts before the
// acknowledgment is written, so the source's clients can re-attach the
// moment they see MOVED.
func (s *Server) cmdAdopt(r *bufio.Reader, w *bufio.Writer, rest string) {
	fields := strings.Fields(rest)
	if len(fields) < 5 {
		fmt.Fprintln(w, "ERR ADOPT needs <name> <nextID> <lastT> <begun> <nbytes> [<k>=<v> ...]")
		return
	}
	name := fields[0]
	nextID, idErr := strconv.ParseUint(fields[1], 10, 64)
	lastT, tErr := parseTime(fields[2])
	begun := fields[3] == "1"
	nbytes, err := strconv.ParseInt(fields[4], 10, 64)
	if err != nil || nbytes < 0 {
		fmt.Fprintf(w, "ERR bad payload length %q\n", fields[4])
		return
	}
	opts, optsErr := parseSessionOptions(optionsFor(s.cfg), fields[5:])

	var lineBuf []byte
	cline, ctrErr := readLine(r, &lineBuf)
	if ctrErr != nil && ctrErr != ErrLineTooLong {
		fmt.Fprintln(w, "ERR ADOPT: reading counters line")
		return
	}
	var counters metrics.Counters
	if ctrErr == nil {
		ctrErr = json.Unmarshal(bytes.TrimSpace(cline), &counters)
	}

	// The payload is on the wire regardless of header validity — consume
	// it fully so a refusal leaves the connection line-aligned. CopyN
	// grows the buffer as bytes arrive, so a lying length cannot force a
	// huge upfront allocation.
	var payload bytes.Buffer
	if _, err := io.CopyN(&payload, r, nbytes); err != nil {
		fmt.Fprintln(w, "ERR ADOPT: short payload")
		return
	}
	if idErr != nil {
		fmt.Fprintf(w, "ERR bad nextID %q\n", fields[1])
		return
	}
	if tErr != nil {
		fmt.Fprintf(w, "ERR bad lastT %q\n", fields[2])
		return
	}
	if optsErr != nil {
		fmt.Fprintf(w, "ERR %v\n", optsErr)
		return
	}
	if ctrErr != nil {
		fmt.Fprintf(w, "ERR ADOPT: bad counters line: %v\n", ctrErr)
		return
	}

	mk := func(se *session) error {
		se.counters = counters
		ix, et, err := streaming.LoadFull(bytes.NewReader(payload.Bytes()), streaming.Options{
			Counters: &se.counters,
			Foreign:  opts.Foreign,
			Shard:    opts.Shard,
			Adapt:    opts.adaptFor(),
		})
		if err != nil {
			return fmt.Errorf("restore session %q: %w", name, err)
		}
		se.joiner = core.NewSTRFromIndex(ix)
		if et != nil {
			se.reo = stream.RestoreReorder(*et)
		}
		se.nextID, se.lastT, se.begun = nextID, lastT, begun
		return nil
	}
	if _, err := s.newSession(name, opts, mk); err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return
	}
	s.cfg.Logf("adopted session %q (%d checkpoint bytes)", name, payload.Len())
	fmt.Fprintf(w, "ADOPTED %s\n", name)
}
