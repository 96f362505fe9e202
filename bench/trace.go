package main

import (
	"bytes"
	"fmt"
	"time"

	"sssj"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
)

// perLayer declares the per-layer metrics, named <module>.<metric>.
// Every workload reports every one; a layer a workload does not touch
// reports 0. Counts marked "exact" come from the program's own counters
// and repeat exactly for a given seed.
var perLayer = []metricDef{
	// internal/index/streaming, read path.
	{"streaming.add_self_us_per_item", "us"},
	{"streaming.entries_traversed_per_item", "count"}, // exact
	{"streaming.candidates_per_item", "count"},        // exact
	{"streaming.full_dots_per_item", "count"},         // exact
	{"streaming.scan_yield", "ratio"},                 // candidates ÷ entries traversed
	{"streaming.candidate_yield", "ratio"},            // pairs ÷ candidates
	// internal/index/streaming, write path and state.
	{"streaming.indexed_entries_per_item", "count"}, // exact
	{"streaming.expired_entries_per_item", "count"}, // exact
	{"streaming.posting_entries_live", "count"},     // exact
	{"streaming.lists_live", "count"},               // exact
	{"streaming.residuals_live", "count"},           // exact
	{"streaming.arena_blocks_live", "count"},        // exact
	{"streaming.arena_occupancy", "entries/block"},  // live entries ÷ live blocks
	{"streaming.checkpoint_save_ms", "ms"},
	{"streaming.checkpoint_load_ms", "ms"},
	{"streaming.checkpoint_bytes", "B"}, // exact
	// internal/stream.
	{"stream.parse_self_us_per_item", "us"},
	{"stream.parse_bytes_per_item", "B"},
	{"stream.reorder_self_us_per_item", "us"},
	{"stream.reorder_depth_max", "count"},
	{"stream.late_drops", "count"}, // exact
	// internal/core and the public package: dispatch that should cost nothing.
	{"core.str_self_us_per_item", "us"},
	{"sssj.process_self_us_per_item", "us"},
	// internal/apss: delivering matches.
	{"apss.emit_us_per_pair", "us"},
	{"apss.pairs_per_item", "count"}, // exact
	// internal/server.
	{"server.rtt_us_p50", "us"},
	{"server.joiner_us_per_item", "us"},
	{"server.overhead_self_us_per_item", "us"}, // rtt − joiner: format, syscalls, parse, queue wait, reply
	{"server.emit_us_per_pair", "us"},
	{"server.bytes_in_per_item", "B"},
	{"server.bytes_out_per_item", "B"},
	{"server.busy_share", "ratio"},
	{"server.open_loop_p50_us", "us"}, // at openRate items/s, timed from each item's due time
	{"server.open_loop_p99_us", "us"},
	{"server.sched_lag_p99_us", "us"}, // how late the open-loop generator itself ran
	{"server.inproc_ratio", "ratio"},
	// internal/cluster.
	{"cluster.add_us_per_item", "us"},
	{"cluster.worker_joiner_us_per_item", "us"},
	{"cluster.coordinator_self_us_per_item", "us"},
	{"cluster.worker_skew", "ratio"},     // busiest worker ÷ mean worker
	{"cluster.fanout_per_item", "count"}, // exact: PUTs ÷ items
	{"cluster.bytes_per_item", "B"},
	{"cluster.inproc_ratio", "ratio"},
	// The benchmark itself, set-up and the Go runtime.
	{"datagen.generate_s", "s"},
	{"bench.warmup_s", "s"},
	{"bench.loop_self_us_per_item", "us"},
	{"runtime.mallocs_per_item", "count"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"runtime.live_heap_kb", "KiB"},
	{"trace.overhead_share", "ratio"},  // (traced − untraced pass time) ÷ untraced
	{"trace.accounted_share", "ratio"}, // sum of layer self times ÷ traced pass time
}

// checkpointReps is how many times the checkpoint is saved and loaded.
const checkpointReps = 3

// series collects one value per round for each per-layer metric.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) into(res *result) {
	for name, v := range s {
		res.set(name, v...)
	}
}

// rounds calls round(r) for r = 0, 1, … : once, then for as long as
// another round still fits in the budget. It stops at the first error.
func rounds(seconds float64, round func(r int) error) error {
	start := time.Now()
	for r := 0; ; r++ {
		t0 := time.Now()
		if err := round(r); err != nil {
			return err
		}
		if time.Since(start).Seconds()+time.Since(t0).Seconds() > seconds {
			return nil
		}
	}
}

// us converts a span total to microseconds per n.
func us(ns int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / 1e3 / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addIndexWork reports what the streaming index did for items items
// (counter deltas over a pass) and what it holds afterwards. It is
// called for the first traced pass only: expiry is lazy and not in step
// with the block, so later passes differ in the last digits, and how
// many passes a run fits in depends on the machine — the first one is
// always the same stretch of the same stream, and its counts repeat
// exactly.
func addIndexWork(s series, c metrics.Counters, items int, size streaming.SizeInfo, arena streaming.BlockInfo) {
	n := float64(items)
	s.add("streaming.entries_traversed_per_item", float64(c.EntriesTraversed)/n)
	s.add("streaming.candidates_per_item", float64(c.Candidates)/n)
	s.add("streaming.full_dots_per_item", float64(c.FullDots)/n)
	s.add("streaming.scan_yield", ratio(float64(c.Candidates), float64(c.EntriesTraversed)))
	s.add("streaming.candidate_yield", ratio(float64(c.Pairs), float64(c.Candidates)))
	s.add("streaming.indexed_entries_per_item", float64(c.IndexedEntries)/n)
	s.add("streaming.expired_entries_per_item", float64(c.ExpiredEntries)/n)
	s.add("apss.pairs_per_item", float64(c.Pairs)/n)
	s.add("streaming.posting_entries_live", float64(size.PostingEntries))
	s.add("streaming.lists_live", float64(size.Lists))
	s.add("streaming.residuals_live", float64(size.Residuals))
	live := arena.Blocks - arena.FreeBlocks
	s.add("streaming.arena_blocks_live", float64(live))
	s.add("streaming.arena_occupancy", ratio(float64(size.PostingEntries), float64(live)))
}

// addAccounting reports how much of a traced pass its spans explain and
// what tracing cost. drivers is the number of goroutines generating
// load, each of which spends the whole pass inside root spans.
func addAccounting(s series, layers map[string]layerTotal, drivers int, traced, untraced passStats) {
	var self int64
	for _, l := range layers {
		self += l.self
	}
	s.add("trace.accounted_share", ratio(float64(self), float64(traced.wall)*float64(drivers)))
	s.add("trace.overhead_share", ratio(float64(traced.wall-untraced.wall), float64(untraced.wall)))
}

func addRuntime(s series, p passStats) {
	s.add("runtime.mallocs_per_item", float64(p.objs)/float64(p.items))
	s.add("runtime.gc_pause_ms_per_s", ratio(float64(p.gcPause)/1e6, p.wall.Seconds()))
}

func delta(after, before metrics.Counters) metrics.Counters {
	after.Sub(before)
	return after
}

// runTraced produces the per-layer metrics of one workload: the span
// breakdown of traced passes, beside untraced passes of the same
// instance that say what tracing cost.
func runTraced(sp spec, cfg config) (*result, error) {
	sp = sp.scaled(cfg.tiny)
	res := newResult(sp.name, perLayer)
	s := series{}
	inst, err := sp.setup(sp, cfg.seed, true)
	if err != nil {
		return nil, err
	}
	ph := inst.phases()
	s.add("datagen.generate_s", ph.generate.Seconds())
	s.add("bench.warmup_s", ph.warmup.Seconds())
	s.add("runtime.live_heap_kb", (float64(liveHeap())-float64(ph.baseHeap))/1024)
	switch inst := inst.(type) {
	case *libInstance:
		err = traceLib(res, s, inst, sp, cfg)
	case *daemonInstance:
		err = traceDaemon(res, s, inst, sp, cfg)
	case *clusterInstance:
		err = traceCluster(res, s, inst, sp, cfg)
	}
	if ferr := inst.finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	s.into(res)
	return res, nil
}

// count tallies a traced run's passes into the result.
func (r *result) count(ps ...passStats) {
	for _, p := range ps {
		r.Passes++
		r.Attempted += p.items
		r.Failed += p.failed
		r.Samples = p.items
	}
	if r.Failed > 0 {
		r.Correct = false
	}
}

// traceLib breaks the in-process workloads down. asm runs the assembled
// pipeline; a second instance runs the real sssj.Joiner over the same
// block, which gives the dispatch overhead of the public entry point,
// the runtime figures and the checkpoint.
func traceLib(res *result, s series, asm *libInstance, sp spec, cfg config) error {
	inst, err := newLibInstance(sp, cfg.seed, false)
	if err != nil {
		return err
	}
	real := inst.(*libInstance)

	// The checkpoint is taken here, after the warm-up pass, so that it
	// always holds the same window; the resumed twin is fed pass 1 now and
	// compared once the original has been fed it too.
	twin, err := traceCheckpoint(s, real)
	if err != nil {
		return err
	}
	res.count(timedPass(twin, 1))
	if err := twin.finish(); err != nil {
		return err
	}

	rec := newRecorder(time.Now(), 8*sp.items)
	next := 1 // the next pass of the real joiner
	err = rounds(cfg.seconds, func(r int) error {
		joined := timedPass(real, next)
		next++
		untraced := timedPass(asm, 2*r+1)
		before := asm.stats
		rec.reset()
		asm.rec, asm.pipe.rec = rec, rec
		traced := timedPass(asm, 2*r+2)
		asm.rec, asm.pipe.rec = nil, nil
		res.count(joined, untraced, traced)

		layers := layerTotals(rec.spans)
		n := traced.items
		s.add("streaming.add_self_us_per_item", us(layers["streaming.add"].self, n))
		s.add("core.str_self_us_per_item", us(layers["core.str"].self, n))
		s.add("stream.reorder_self_us_per_item", us(layers["stream.reorder"].self, n))
		s.add("stream.parse_self_us_per_item", us(layers["stream.parse"].self, n))
		s.add("bench.loop_self_us_per_item", us(layers["bench.item"].self, n))
		s.add("apss.emit_us_per_pair", us(layers["apss.emit"].total, layers["apss.emit"].count))
		s.add("sssj.process_self_us_per_item", us(int64(joined.wall-untraced.wall), n))
		s.add("stream.parse_bytes_per_item", float64(asm.textBytes)/float64(n))
		addAccounting(s, layers, 1, traced, untraced)
		addRuntime(s, joined)
		if r == 0 {
			var arena streaming.BlockInfo
			if as, ok := asm.pipe.idx.(streaming.ArenaSizer); ok {
				arena = as.ArenaInfo()
			}
			addIndexWork(s, delta(asm.stats, before), n, asm.pipe.idx.Size(), arena)
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.spans = rec.spans
	s.add("stream.reorder_depth_max", float64(asm.pipe.depthMax))
	s.add("stream.late_drops", float64(real.stats.LateDrops))

	if err := real.finish(); err != nil {
		return err
	}
	if got, want := twin.dig.pass(1), real.dig.pass(1); got != want {
		res.fail(sp.items, "resumed joiner reported %v for pass 1, the original %v", got, want)
	}
	return nil
}

// traceCheckpoint times Joiner.Checkpoint and sssj.Resume on the full
// live window and returns a twin of real that runs the resumed joiner:
// fed the same pass, the two must report the same matches.
func traceCheckpoint(s series, real *libInstance) (*libInstance, error) {
	var buf bytes.Buffer
	var resumed *sssj.Joiner
	for i := 0; i < checkpointReps; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := real.joiner.Checkpoint(&buf); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		s.add("streaming.checkpoint_save_ms", float64(time.Since(t0))/1e6)
		t0 = time.Now()
		var err error
		if resumed, err = sssj.Resume(bytes.NewReader(buf.Bytes()), sssj.Options{}); err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		s.add("streaming.checkpoint_load_ms", float64(time.Since(t0))/1e6)
	}
	s.add("streaming.checkpoint_bytes", float64(buf.Len()))

	twin := *real
	twin.joiner, twin.process = resumed, resumed.ProcessTo
	twin.dig = newPassDigests(real.sp.items, real.sp.prefix)
	twin.sink = twin.dig.sink
	return &twin, nil
}

// inprocThroughput feeds pass 1 of every block to a fresh in-process
// joiner (after pass 0 as warm-up) and returns items per second: the
// denominator of the wire workloads' inproc_ratio.
func inprocThroughput(sp spec, blks ...*block) (float64, error) {
	var items int
	var wall time.Duration
	for _, blk := range blks {
		j, err := sssj.New(sssj.Options{Theta: sp.theta, Lambda: sp.lambda})
		if err != nil {
			return 0, err
		}
		l := &libInstance{sp: sp, blk: blk, joiner: j, process: j.ProcessTo, sink: func(sssj.Match) error { return nil }}
		l.pass(0)
		p := timedPass(l, 1)
		items, wall = items+p.items, wall+p.wall
	}
	return float64(items) / wall.Seconds(), nil
}

// traceDaemon breaks daemon-loopback down: client-side "server.rtt"
// spans, with the injected joiner's "streaming.add" and "apss.emit"
// spans under them, byte counts from the listener, and the sessions' own
// counters read over the protocol.
func traceDaemon(res *result, s series, d *daemonInstance, sp spec, cfg config) error {
	epoch := time.Now()
	var srvRecs [daemonConns]*recorder
	for c := range d.joiners {
		if d.joiners[c] == nil {
			return fmt.Errorf("session %s was not built by the tracing hook", sessionName(c))
		}
		srvRecs[c] = newRecorder(epoch, 4*sp.items)
		d.recs[c] = newRecorder(epoch, sp.items)
	}
	clientRecs := d.recs
	counters := func() (metrics.Counters, error) {
		var sum metrics.Counters
		for _, cl := range d.clients {
			c, err := cl.StatsJSON()
			if err != nil {
				return sum, err
			}
			sum.Add(c)
		}
		return sum, nil
	}
	setTracing := func(on bool) {
		for c, tj := range d.joiners {
			d.recs[c] = nil
			tj.rec.Store(nil)
			if on {
				clientRecs[c].reset()
				srvRecs[c].reset()
				d.recs[c] = clientRecs[c]
				tj.rec.Store(srvRecs[c])
			}
		}
	}
	setTracing(false)

	var throughput []float64
	err := rounds(cfg.seconds*closedShare, func(r int) error {
		untraced := timedPass(d, 2*r+1)
		before, err := counters()
		if err != nil {
			return err
		}
		in0, out0 := d.bytes.in.Load(), d.bytes.out.Load()
		setTracing(true)
		traced := timedPass(d, 2*r+2)
		setTracing(false)
		after, err := counters()
		if err != nil {
			return err
		}
		res.count(untraced, traced)
		throughput = append(throughput, float64(untraced.items)/untraced.wall.Seconds())

		res.spans = mergeSpans(clientRecs[:], srvRecs[:])
		layers := layerTotals(res.spans)
		n := traced.items
		s.add("server.rtt_us_p50", untraced.p50)
		s.add("server.joiner_us_per_item", us(layers["streaming.add"].total, n))
		s.add("server.overhead_self_us_per_item", us(layers["server.rtt"].self, n))
		s.add("streaming.add_self_us_per_item", us(layers["streaming.add"].self, n))
		emit := us(layers["apss.emit"].total, layers["apss.emit"].count)
		s.add("server.emit_us_per_pair", emit)
		s.add("apss.emit_us_per_pair", emit)
		// The STATS round trips themselves are in the byte counts; they
		// are a few hundred bytes against megabytes.
		s.add("server.bytes_in_per_item", float64(d.bytes.in.Load()-in0)/float64(n))
		s.add("server.bytes_out_per_item", float64(d.bytes.out.Load()-out0)/float64(n))
		s.add("server.busy_share", ratio(float64(d.busy.Load()), float64(res.Attempted)))
		addAccounting(s, layers, daemonConns, traced, untraced)
		addRuntime(s, untraced)

		if r > 0 {
			return nil
		}
		var size streaming.SizeInfo
		for _, cl := range d.clients {
			sz, err := cl.SizeInfo()
			if err != nil {
				return err
			}
			size.PostingEntries += sz.PostingEntries
			size.Lists += sz.Lists
			size.Residuals += sz.Residuals
		}
		addIndexWork(s, delta(after, before), n, size, sumArenas(d.joiners[:]))
		return nil
	})
	if err != nil {
		return err
	}

	d.setRate(openRate)
	rounds(cfg.seconds*(1-closedShare), func(r int) error {
		p := timedPass(d, res.Passes+1)
		res.count(p)
		s.add("server.open_loop_p50_us", p.p50)
		s.add("server.open_loop_p99_us", p.p99)
		s.add("server.sched_lag_p99_us", p.lagP99)
		return nil
	})
	d.setRate(0)

	inproc, err := inprocThroughput(sp, d.blks[:]...)
	if err != nil {
		return err
	}
	s.add("server.inproc_ratio", ratio(median(throughput), inproc))
	verifyTraced(res, d, sp)
	return nil
}

// sumArenas adds up the block-arena occupancy of the injected joiners.
func sumArenas(joiners []*tracedJoiner) streaming.BlockInfo {
	var sum streaming.BlockInfo
	for _, tj := range joiners {
		a, _ := tj.ArenaInfo()
		sum.Blocks += a.Blocks
		sum.FreeBlocks += a.FreeBlocks
	}
	return sum
}

// traceCluster breaks cluster2-loopback down: "cluster.add" spans around
// Coordinator.AddTo, with each worker's injected joiner spans under
// them. The two workers run in parallel, so their spans overlap and the
// coordinator's self time is what neither covers.
func traceCluster(res *result, s series, c *clusterInstance, sp spec, cfg config) error {
	epoch := time.Now()
	root := newRecorder(epoch, sp.items)
	var workerRecs [clusterWorkers]*recorder
	for w := range c.joiners {
		if c.joiners[w] == nil {
			return fmt.Errorf("worker %d was not built by the tracing hook", w)
		}
		workerRecs[w] = newRecorder(epoch, 4*sp.items)
	}
	setTracing := func(on bool) {
		c.rec = nil
		for w, tj := range c.joiners {
			tj.rec.Store(nil)
			if on {
				workerRecs[w].reset()
				tj.rec.Store(workerRecs[w])
			}
		}
		if on {
			root.reset()
			c.rec = root
		}
	}
	bytesMoved := func() (in, out int64) {
		for _, l := range c.bytes {
			in, out = in+l.in.Load(), out+l.out.Load()
		}
		return in, out
	}

	var throughput []float64
	err := rounds(cfg.seconds, func(r int) error {
		untraced := timedPass(c, 2*r+1)
		before, err := c.coord.Stats()
		if err != nil {
			return err
		}
		in0, out0 := bytesMoved()
		setTracing(true)
		traced := timedPass(c, 2*r+2)
		setTracing(false)
		in1, out1 := bytesMoved()
		after, err := c.coord.Stats()
		if err != nil {
			return err
		}
		res.count(untraced, traced)
		throughput = append(throughput, float64(untraced.items)/untraced.wall.Seconds())

		res.spans = mergeSpans([]*recorder{root}, workerRecs[:])
		layers := layerTotals(res.spans)
		n := traced.items
		joiner := us(layers["streaming.add"].total, n)
		s.add("cluster.add_us_per_item", us(layers["cluster.add"].total, n))
		s.add("cluster.worker_joiner_us_per_item", joiner)
		s.add("cluster.coordinator_self_us_per_item", us(layers["cluster.add"].self, n))
		s.add("cluster.fanout_per_item", float64(layers["streaming.add"].count)/float64(n))
		s.add("cluster.bytes_per_item", float64(in1-in0+out1-out0)/float64(n))
		s.add("server.joiner_us_per_item", joiner)
		s.add("server.bytes_in_per_item", float64(in1-in0)/float64(n))
		s.add("server.bytes_out_per_item", float64(out1-out0)/float64(n))
		s.add("streaming.add_self_us_per_item", us(layers["streaming.add"].self, n))
		emit := us(layers["apss.emit"].total, layers["apss.emit"].count)
		s.add("server.emit_us_per_pair", emit)
		s.add("apss.emit_us_per_pair", emit)
		var busiest, total float64
		for _, wr := range workerRecs {
			var busy float64
			for _, sp := range wr.spans {
				if sp.Name == "streaming.add" {
					busy += float64(sp.End - sp.Start)
				}
			}
			busiest, total = max(busiest, busy), total+busy
		}
		s.add("cluster.worker_skew", ratio(busiest, total/clusterWorkers))
		addAccounting(s, layers, 1, traced, untraced)
		addRuntime(s, untraced)

		if r == 0 {
			addIndexWork(s, delta(after, before), n, c.coord.IndexSize(), sumArenas(c.joiners[:]))
		}
		return nil
	})
	if err != nil {
		return err
	}

	inproc, err := inprocThroughput(sp, c.blk)
	if err != nil {
		return err
	}
	s.add("cluster.inproc_ratio", ratio(median(throughput), inproc))
	verifyTraced(res, c, sp)
	return nil
}

// verifyTraced checks that tracing did not change what a wire workload
// reports: every pass, traced or not, must repeat pass 1.
func verifyTraced(res *result, inst instance, sp spec) {
	digs := inst.digests()
	for k := 2; k <= res.Passes; k++ {
		if !digs.pass(k).samePairs(digs.pass(1)) {
			res.fail(sp.items, "pass %d reported %v, pass 1 reported %v", k, digs.pass(k), digs.pass(1))
		}
	}
}
