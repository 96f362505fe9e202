// Command sssj runs a streaming similarity join over dataset files and
// prints matched pairs.
//
// Usage:
//
//	sssj -theta 0.7 -lambda 0.01 -input data.txt
//	sssjgen -profile RCV1 | sssj -theta 0.7 -lambda 0.01 -format binary
//	sssj -join foreign -input a.txt -inputB b.txt -theta 0.7 -lambda 0.01
//
// Output: one match per line, "x y sim dot dt". With -join foreign the
// two inputs are interleaved by timestamp (side A = -input, side B =
// -inputB), IDs number the merged stream, and every match pairs an A
// item with a B item.
//
// With -lateness δ the input may be out of order by up to δ: a bounded
// reorder stage re-sorts it and items further behind than δ are
// rejected. -window tumbling:SIZE or -window sliding:SIZE replaces
// exponential decay with a window join (-lambda is then ignored).
//
// With -server ADDR the join runs remotely: items stream through a
// running sssjd instead of an in-process joiner, and matches come back
// over the same connection. -session NAME creates a private session on
// the daemon (options from -theta/-lambda/-index/-join/-lateness) or
// attaches to it if it already exists, in which case the existing
// session's options win; without -session the items go to the daemon's
// default session under the daemon's own flags. -window is local-only
// and -framework must be STR in client mode.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"sssj"
	"sssj/internal/apss"
	"sssj/internal/server"
)

// parseWindow parses the -window flag value "KIND:SIZE" into a window
// spec (KIND tumbling or sliding, SIZE a positive finite duration).
func parseWindow(s string) (sssj.Window, error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return sssj.Window{}, fmt.Errorf(`bad -window %q, want "tumbling:SIZE" or "sliding:SIZE"`, s)
	}
	var kind sssj.WindowKind
	switch s[:colon] {
	case "tumbling":
		kind = sssj.WindowTumbling
	case "sliding":
		kind = sssj.WindowSliding
	default:
		return sssj.Window{}, fmt.Errorf("unknown window kind %q, want tumbling or sliding", s[:colon])
	}
	size, err := strconv.ParseFloat(s[colon+1:], 64)
	if err != nil || !(size > 0) || math.IsInf(size, 1) {
		return sssj.Window{}, fmt.Errorf("bad window size %q, want a positive finite number", s[colon+1:])
	}
	return sssj.Window{Kind: kind, Size: size}, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sssj:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sssj", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		theta     = fs.Float64("theta", 0.7, "similarity threshold in (0,1]")
		lambda    = fs.Float64("lambda", 0.01, "time-decay factor > 0 (ignored with -window)")
		framework = fs.String("framework", "STR", "framework: STR or MB")
		index     = fs.String("index", "L2", "index: L2, INV, L2AP, AP (MB and tumbling windows only), or auto (STR: online engine selection)")
		lateness  = fs.Float64("lateness", 0, "event-time lateness bound: accept items up to this far behind the newest timestamp")
		window    = fs.String("window", "", `window mode replacing exponential decay: "tumbling:SIZE" or "sliding:SIZE"`)
		input     = fs.String("input", "-", "input path, or - for stdin (side A under -join foreign)")
		inputB    = fs.String("inputB", "", "side-B input path for -join foreign")
		join      = fs.String("join", "self", "join mode: self, or foreign (A=-input vs B=-inputB, merged by timestamp)")
		format    = fs.String("format", "text", "input format: text or binary")
		stats     = fs.Bool("stats", false, "print operation counters to stderr")
		quiet     = fs.Bool("quiet", false, "suppress per-match output; print only the count")
		srvAddr   = fs.String("server", "", "stream through a running sssjd at this address instead of joining in-process")
		session   = fs.String("session", "", "with -server: create or attach to this named session (empty = the daemon's default session)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := sssj.Options{Theta: *theta, Lambda: *lambda, Lateness: *lateness}
	if *window != "" {
		w, err := parseWindow(*window)
		if err != nil {
			return err
		}
		opts.Window = w
		opts.Lambda = 0 // window joins have no decay; λ is synthesized
	}
	switch *join {
	case "self":
		if *inputB != "" {
			return fmt.Errorf("-inputB requires -join foreign")
		}
	case "foreign":
		if *inputB == "" {
			return fmt.Errorf("-join foreign needs a side-B stream: set -inputB")
		}
		if *input == "-" && *inputB == "-" {
			return fmt.Errorf("-input and -inputB cannot both read stdin")
		}
		opts.Join = sssj.JoinForeign
	default:
		return fmt.Errorf("unknown join mode %q", *join)
	}
	switch *framework {
	case "STR":
		opts.Framework = sssj.Streaming
	case "MB":
		opts.Framework = sssj.MiniBatch
	default:
		return fmt.Errorf("unknown framework %q", *framework)
	}
	if *session != "" && *srvAddr == "" {
		return fmt.Errorf("-session requires -server")
	}
	if *srvAddr != "" {
		if opts.Framework != sssj.Streaming {
			return fmt.Errorf("client mode (-server) streams through a sssjd session; -framework must be STR")
		}
		if *window != "" {
			return fmt.Errorf("-window is local-only; a sssjd session joins with exponential decay")
		}
		if *lateness < 0 || math.IsNaN(*lateness) || math.IsInf(*lateness, 0) {
			return fmt.Errorf("lateness must be finite and >= 0, got %v", *lateness)
		}
	}
	switch *index {
	case "L2":
		opts.Index = sssj.IndexL2
	case "INV":
		opts.Index = sssj.IndexINV
	case "L2AP":
		opts.Index = sssj.IndexL2AP
	case "AP":
		opts.Index = sssj.IndexAP
	case "auto", "AUTO":
		opts.Index = sssj.IndexAuto
	default:
		return fmt.Errorf("unknown index %q", *index)
	}
	var st sssj.Stats
	if *stats {
		opts.Stats = &st
	}

	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	open := func(path string) (sssj.Source, error) {
		var in io.Reader = stdin
		if path != "-" {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			closers = append(closers, f)
			in = f
		}
		switch *format {
		case "text":
			return sssj.ReadText(in), nil
		case "binary":
			return sssj.ReadBinary(in), nil
		default:
			return nil, fmt.Errorf("unknown format %q", *format)
		}
	}
	src, err := open(*input)
	if err != nil {
		return err
	}
	if opts.Join == sssj.JoinForeign {
		srcB, err := open(*inputB)
		if err != nil {
			return err
		}
		src = sssj.MergeSideSources(src, srcB)
	}

	if *srvAddr != "" {
		return runClient(*srvAddr, *session, *index, opts, src, stdout, stderr, *stats, *quiet)
	}

	j, err := sssj.New(opts)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	// Matches stream from the join straight into the output buffer as
	// they are found — no result slices, and a write error stops the
	// join via the sink contract.
	total := 0
	var line []byte
	sink := func(m sssj.Match) error {
		total++
		if *quiet {
			return nil
		}
		line = appendMatch(line[:0], m)
		_, err := w.Write(line)
		return err
	}
	for {
		it, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := j.ProcessTo(it, sink); err != nil {
			return err
		}
	}
	if err := j.FlushTo(sink); err != nil {
		return err
	}
	if *quiet {
		fmt.Fprintf(w, "%d\n", total)
	}
	if *stats {
		fmt.Fprintln(stderr, st.String())
	}
	return nil
}

// appendMatch appends m to b as one output line, "x y sim dot dt" with
// the floats to six decimals: the bytes fmt writes for
// "%d %d %.6f %.6f %.6f\n", without its per-call allocations.
func appendMatch(b []byte, m sssj.Match) []byte {
	b = strconv.AppendUint(b, m.X, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, m.Y, 10)
	for _, f := range [...]float64{m.Sim, m.Dot, m.DT} {
		b = append(b, ' ')
		b = strconv.AppendFloat(b, f, 'f', 6, 64)
	}
	return append(b, '\n')
}

// runClient streams the source through a sssjd session and prints the
// matches the daemon sends back, in the same format as a local join.
// Match IDs are the session's own stream numbering, so a fresh session
// prints exactly what a local run over the same input would.
func runClient(addr, session, index string, opts sssj.Options, src sssj.Source, stdout, stderr io.Writer, stats, quiet bool) error {
	c, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if session != "" {
		so := []string{
			"theta=" + strconv.FormatFloat(opts.Theta, 'g', -1, 64),
			"lambda=" + strconv.FormatFloat(opts.Lambda, 'g', -1, 64),
			"index=" + index,
		}
		if opts.Join == sssj.JoinForeign {
			so = append(so, "join=foreign")
		}
		if opts.Lateness > 0 {
			so = append(so, "lateness="+strconv.FormatFloat(opts.Lateness, 'g', -1, 64))
		}
		if err := c.Session(session, so...); err != nil {
			// The name is taken: attach to the existing session. Its
			// options win over the local flags.
			if err2 := c.Session(session); err2 != nil {
				return err
			}
		}
	}

	w := bufio.NewWriter(stdout)
	defer w.Flush()
	total := 0
	var line []byte
	emit := func(ms []sssj.Match) error {
		total += len(ms)
		if quiet {
			return nil
		}
		for _, m := range ms {
			line = appendMatch(line[:0], m)
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
		return nil
	}

	side := apss.SideA
	lastT := math.Inf(-1)
	sent := false
	for {
		it, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if opts.Join == sssj.JoinForeign && it.Side != side {
			side = it.Side
			if err := c.Side(side); err != nil {
				return err
			}
		}
		_, ms, err := c.Add(it.Time, it.Vec)
		if err != nil {
			return err
		}
		if it.Time > lastT {
			lastT = it.Time
		}
		sent = true
		if err := emit(ms); err != nil {
			return err
		}
	}
	if opts.Lateness > 0 && sent {
		// Drain the reorder stage: push the watermark past everything
		// that could still be buffered.
		_, ms, err := c.Watermark(lastT + opts.Lateness + 1)
		if err != nil {
			return err
		}
		if err := emit(ms); err != nil {
			return err
		}
	}

	if quiet {
		fmt.Fprintf(w, "%d\n", total)
	}
	if stats {
		st, err := c.StatsJSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(stderr, st.String())
	}
	return nil
}
