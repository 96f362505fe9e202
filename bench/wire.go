package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sssj/internal/apss"
	"sssj/internal/cluster"
	"sssj/internal/core"
	"sssj/internal/index/streaming"
	"sssj/internal/metrics"
	"sssj/internal/server"
	"sssj/internal/stream"
)

// tracedJoiner is the timing wrapper the wire workloads inject through
// server.Config.NewSessionJoiner / NewJoiner: the session's own STR
// joiner with a span around AddTo and around every match it emits.
// Everything else (IndexSize, ArenaInfo, AdvanceTo…) is the embedded
// joiner's, so the session samples and serves what it always does. The
// recorder is swapped between passes while the session is idle; it is
// atomic because the pipeline goroutine reads it.
type tracedJoiner struct {
	*core.STR
	rec  atomic.Pointer[recorder]
	lane uint64 // ORed into item IDs: keeps the two sessions' IDs apart
}

func (t *tracedJoiner) AddTo(x stream.Item, emit apss.Sink) error {
	rec := t.rec.Load()
	if rec == nil {
		return t.STR.AddTo(x, emit)
	}
	s := rec.begin("streaming.add", t.lane|x.ID)
	err := t.STR.AddTo(x, tracedEmit(rec, t.lane|x.ID, emit))
	rec.end(s)
	return err
}

// laneShift places a connection's number above any item ID a run can
// reach.
const laneShift = 48

// countingListener counts the bytes of every connection it accepts, from
// the server's side: in is what clients sent.
type countingListener struct {
	net.Listener
	in, out atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.out.Add(int64(n))
	return n, err
}

// listenLoopback opens a loopback listener, counting bytes when traced.
func listenLoopback(traced bool) (net.Listener, *countingListener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil || !traced {
		return ln, nil, err
	}
	cl := &countingListener{Listener: ln}
	return cl, cl, nil
}

// daemonConns is the number of client connections, each attached to its
// own session: the two load-generating goroutines the 2-core container
// allows.
const daemonConns = 2

// daemonInstance is one server.Server on loopback with daemonConns
// clients. Closed loop, each connection sends its next ADD when the
// previous OK arrives; open loop, each sends on a fixed schedule and
// times every item from the moment it was due.
type daemonInstance struct {
	sp      spec
	ph      setupPhases
	srv     *server.Server
	served  chan error // Serve's return, once it has been started
	serving bool
	blks    [daemonConns]*block
	clients [daemonConns]*server.Client
	digs    [daemonConns]*passDigests
	lat     [daemonConns][]int64
	lag     [daemonConns][]int64
	all     passOut       // concatenation buffers
	every   time.Duration // open loop: one connection's send interval; 0 = closed loop
	busy    atomic.Int64  // BUSY replies seen, retried or not

	// Tracing only.
	bytes   *countingListener
	joiners [daemonConns]*tracedJoiner
	recs    [daemonConns]*recorder // client side, one per connection goroutine
}

func newDaemonInstance(sp spec, seed int64, traced bool) (instance, error) {
	d := &daemonInstance{sp: sp, served: make(chan error, 1)}
	t0 := time.Now()
	for c := range d.blks {
		d.blks[c] = genBlock(sp.profile, sp.items, seed*daemonConns+int64(c), 0)
		if err := d.blks[c].checkReplayable(sp.params().Horizon(), 0); err != nil {
			return nil, err
		}
		d.digs[c] = newPassDigests(sp.items, sp.prefix)
		d.lat[c] = make([]int64, 0, sp.items)
		d.lag[c] = make([]int64, 0, sp.items)
	}
	d.ph.generate = time.Since(t0)
	d.ph.baseHeap = liveHeap()

	cfg := server.Config{Params: sp.params()}
	if traced {
		cfg.NewSessionJoiner = func(name string, o server.SessionOptions, c *metrics.Counters) (core.Joiner, error) {
			str, err := core.NewSTRFull(streaming.L2, apss.Params{Theta: o.Theta, Lambda: o.Lambda}, streaming.Options{Counters: c})
			if err != nil {
				return nil, err
			}
			tj := &tracedJoiner{STR: str}
			for n := range d.joiners {
				if name == sessionName(n) {
					tj.lane = uint64(n) << laneShift
					d.joiners[n] = tj
				}
			}
			return tj, nil
		}
	}
	var err error
	if d.srv, err = server.New(cfg); err != nil {
		return nil, err
	}
	ln, counted, err := listenLoopback(traced)
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	d.bytes = counted
	d.serving = true
	go func() { d.served <- d.srv.Serve(ln) }()
	for c := range d.clients {
		if d.clients[c], err = server.Dial(ln.Addr().String()); err == nil {
			err = d.clients[c].Session(sessionName(c),
				"theta="+strconv.FormatFloat(sp.theta, 'g', -1, 64),
				"lambda="+strconv.FormatFloat(sp.lambda, 'g', -1, 64), "index=L2")
		}
		if err != nil {
			d.finish()
			return nil, err
		}
	}
	t0 = time.Now()
	if out := d.pass(0); out.failed > 0 {
		d.finish()
		return nil, fmt.Errorf("%s: %d of %d warm-up items failed", sp.name, out.failed, out.items)
	}
	d.ph.warmup = time.Since(t0)
	return d, nil
}

// sessionName names the session of connection c.
func sessionName(c int) string { return "s" + strconv.Itoa(c) }

func (d *daemonInstance) setRate(perSecond float64) {
	d.every = 0
	if perSecond > 0 {
		d.every = time.Duration(float64(time.Second) * daemonConns / perSecond)
	}
}

func (d *daemonInstance) prepare(int) {}

func (d *daemonInstance) pass(k int) passOut {
	var wg sync.WaitGroup
	var failed [daemonConns]int
	start := time.Now()
	for c := range d.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Connections are staggered so that the sends of an open
			// loop are evenly spaced over all of them.
			failed[c] = d.feed(c, k, start.Add(d.every*time.Duration(c)/daemonConns))
		}(c)
	}
	wg.Wait()
	d.all.lat, d.all.lag, d.all.items, d.all.failed = d.all.lat[:0], d.all.lag[:0], 0, 0
	for c := range d.clients {
		d.all.lat = append(d.all.lat, d.lat[c]...)
		d.all.lag = append(d.all.lag, d.lag[c]...)
		d.all.items += len(d.lat[c])
		d.all.failed += failed[c]
	}
	return d.all
}

// feed sends pass k of connection c's block. first is when the first
// item of an open loop is due.
func (d *daemonInstance) feed(c, k int, first time.Time) (failed int) {
	blk, cl, dig, rec := d.blks[c], d.clients[c], d.digs[c], d.recs[c]
	lane := uint64(c) << laneShift
	d.lat[c], d.lag[c] = paced(len(blk.items), first, d.every, d.lat[c][:0], d.lag[c][:0], func(i int) {
		it := blk.at(k, i)
		s := rec.begin("server.rtt", lane|it.ID)
		_, ms, err := cl.Add(it.Time, it.Vec)
		if errors.Is(err, server.ErrBusy) {
			d.busy.Add(1)
			_, ms, err = cl.Add(it.Time, it.Vec)
		}
		rec.end(s)
		if err != nil {
			failed++
		}
		for _, m := range ms {
			dig.add(m)
		}
	})
	return failed
}

// paced calls send(0) … send(n-1) in order from one goroutine and
// appends each call's latency to lat. With every == 0 it is a closed
// loop: each call starts when the previous one returned and is timed
// from its start. Otherwise it is an open loop: call i is due at
// first + i·every, starts no earlier, and is timed from when it was due
// — so a stalled call delays the calls behind it but never skips one,
// and the wait it imposes on them counts as their latency. lag gets how
// late each open-loop call started.
func paced(n int, first time.Time, every time.Duration, lat, lag []int64, send func(i int)) ([]int64, []int64) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if every > 0 {
			due := first.Add(every * time.Duration(i))
			waitUntil(due)
			lag = append(lag, int64(time.Since(due)))
			t0 = due
		}
		send(i)
		lat = append(lat, int64(time.Since(t0)))
	}
	return lat, lag
}

// waitUntil blocks until t: a nanosleep system call to shortly before
// it, then yielding the processor. The runtime's own timers will not do
// — a processor sleeping in the network poller is woken with millisecond
// resolution — and yielding alone starves that poller, which only an
// idle processor watches.
func waitUntil(t time.Time) {
	const spin = 100 * time.Microsecond
	if d := time.Until(t) - spin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // an early return only lengthens the spin
	}
	for time.Until(t) > 0 {
		runtime.Gosched()
	}
}

func (d *daemonInstance) finish() error {
	for _, cl := range d.clients {
		if cl != nil {
			cl.Close()
		}
	}
	err := d.srv.Close()
	if d.serving {
		d.serving = false
		if serr := <-d.served; err == nil {
			err = serr
		}
	}
	return err
}

func (d *daemonInstance) digests() *passDigests { return mergeDigests(d.digs[:]...) }
func (d *daemonInstance) phases() setupPhases   { return d.ph }

func (d *daemonInstance) references(prefix int) (digest, error) {
	var sum digest
	for _, blk := range d.blks {
		ref, err := reference(blk, d.sp.params(), 0, prefix)
		if err != nil {
			return digest{}, err
		}
		sum.merge(ref)
	}
	return sum, nil
}

// clusterWorkers is the cluster width.
const clusterWorkers = 2

// clusterInstance is a cluster.Coordinator connected to clusterWorkers
// shard-engine servers booted on loopback the way cluster.StartLocal
// boots them, driven by one goroutine calling AddTo in a closed loop.
type clusterInstance struct {
	sp      spec
	ph      setupPhases
	blk     *block
	coord   *cluster.Coordinator
	srvs    []*server.Server
	served  chan error // one Serve return per started listener
	serving int
	dig     *passDigests
	lat     []int64

	// Tracing only.
	bytes   []*countingListener
	joiners [clusterWorkers]*tracedJoiner
	rec     *recorder
}

func newClusterInstance(sp spec, seed int64, traced bool) (instance, error) {
	c := &clusterInstance{sp: sp, served: make(chan error, clusterWorkers), lat: make([]int64, 0, sp.items)}
	t0 := time.Now()
	c.blk = genBlock(sp.profile, sp.items, seed, 0)
	if err := c.blk.checkReplayable(sp.params().Horizon(), 0); err != nil {
		return nil, err
	}
	c.ph.generate = time.Since(t0)
	c.ph.baseHeap = liveHeap()
	c.dig = newPassDigests(sp.items, sp.prefix)

	var addrs []string
	for w := 0; w < clusterWorkers; w++ {
		shard := streaming.Shard{ID: w, N: clusterWorkers}
		srv, err := server.New(server.Config{
			Params: sp.params(),
			NewJoiner: func(p apss.Params, cn *metrics.Counters) (core.Joiner, error) {
				str, err := core.NewSTRFull(streaming.L2, p, streaming.Options{Counters: cn, Shard: shard})
				if err != nil || !traced {
					return str, err
				}
				c.joiners[shard.ID] = &tracedJoiner{STR: str}
				return c.joiners[shard.ID], nil
			},
		})
		if err != nil {
			c.finish()
			return nil, err
		}
		c.srvs = append(c.srvs, srv)
		ln, counted, err := listenLoopback(traced)
		if err != nil {
			c.finish()
			return nil, err
		}
		if counted != nil {
			c.bytes = append(c.bytes, counted)
		}
		c.serving++
		go func() { c.served <- srv.Serve(ln) }()
		addrs = append(addrs, ln.Addr().String())
	}
	var err error
	c.coord, err = cluster.Connect(cluster.Config{
		Kind: streaming.L2, Params: sp.params(), Workers: addrs,
		Dialer: server.Dialer{DialTimeout: time.Second, IOTimeout: 30 * time.Second, Retries: 3},
	})
	if err != nil {
		c.finish()
		return nil, err
	}
	t0 = time.Now()
	if out := c.pass(0); out.failed > 0 {
		c.finish()
		return nil, fmt.Errorf("%s: %d of %d warm-up items failed", sp.name, out.failed, out.items)
	}
	c.ph.warmup = time.Since(t0)
	return c, nil
}

func (c *clusterInstance) prepare(int) {}

func (c *clusterInstance) pass(k int) passOut {
	out := passOut{lat: c.lat[:0]}
	for i := range c.blk.items {
		it := c.blk.at(k, i)
		t0 := time.Now()
		s := c.rec.begin("cluster.add", it.ID)
		err := c.coord.AddTo(it, c.dig.sink)
		c.rec.end(s)
		if err != nil {
			out.failed++
		}
		out.lat = append(out.lat, int64(time.Since(t0)))
		out.items++
	}
	return out
}

func (c *clusterInstance) finish() error {
	var first error
	if c.coord != nil {
		first = c.coord.Close()
	}
	for _, srv := range c.srvs {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	for ; c.serving > 0; c.serving-- {
		if err := <-c.served; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *clusterInstance) digests() *passDigests { return c.dig }
func (c *clusterInstance) phases() setupPhases   { return c.ph }

func (c *clusterInstance) references(prefix int) (digest, error) {
	return reference(c.blk, c.sp.params(), 0, prefix)
}
