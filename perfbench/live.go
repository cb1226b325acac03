package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"matrix/internal/coordinator"
	"matrix/internal/core"
	"matrix/internal/experiments"
	"matrix/internal/game"
	"matrix/internal/gameclient"
	"matrix/internal/gameserver"
	"matrix/internal/geom"
	"matrix/internal/host"
	"matrix/internal/id"
	"matrix/internal/middleware"
	"matrix/internal/protocol"
	"matrix/internal/trace"
	"matrix/internal/transport"
)

// The loopback workload: a live fleet in this process over loopback TCP —
// a coordinator with two static partitions split at x = 500, a server on
// each, and one client per partition standing liveOffset from the
// boundary, so each client's updates are echoed by its own server and
// forwarded over the peer link to the other client. The offered load is
// an open loop at liveRate updates per second in total.
const (
	// liveRate is the aggregate offered rate, about half the rate at which
	// the echo p99 first crosses the 50 ms latency limit on the machine
	// the benchmark was calibrated on (see README.md).
	liveRate = 25000
	// liveOffset is each client's distance from the partition boundary,
	// well inside the 40-unit bzflag radius: every update is visible to
	// the other client, and moves (±liveJitter) never cross the boundary.
	liveOffset = 10
	liveJitter = 2
	// liveSetupReps is how many fleets a run boots to time set-up; the
	// median is reported and the last fleet is the one measured.
	liveSetupReps = 5
	// liveDrain bounds the wait for in-flight deliveries after the last
	// update is sent; anything later counts as lost.
	liveDrain = 3 * time.Second
	liveBoot  = 5 * time.Second
)

// liveMiddleware is the chain on both servers. The per-client limit is
// far above the offered per-client rate and the shed queue far above any
// queue the offered rate builds, so every frame is judged and none is
// dropped.
func liveMiddleware() middleware.Config {
	return middleware.Config{
		Stages:          []string{"ratelimit", "admission", "audit"},
		RateLimitPerSec: 4 * liveRate,
		ShedQueue:       1 << 20,
	}
}

// fleet is one booted loopback deployment.
type fleet struct {
	coord   *host.CoordinatorHost
	servers []*host.ServerHost
	clients []*host.ClientHost
	homes   []geom.Point
	scrape  []string // metrics endpoint per server
	closers []io.Closer
	obs     *observer
	net     *netStats // server-side send timing; nil when untraced
}

func (f *fleet) Close() {
	for _, c := range f.clients {
		_ = c.Close() // teardown: nothing left to report
	}
	for _, c := range f.closers {
		_ = c.Close()
	}
	for _, s := range f.servers {
		_ = s.Close()
	}
	if f.coord != nil {
		_ = f.coord.Close()
	}
}

// bootFleet starts the coordinator and both servers, waits until each
// owns its partition and knows its peer, then joins the two clients.
func bootFleet(traced bool) (f *fleet, err error) {
	world := experiments.World
	mid := (world.MinX + world.MaxX) / 2
	radius := game.Bzflag().Radius
	f = &fleet{obs: &observer{}}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	var snet transport.Network = transport.TCPNetwork{}
	if traced {
		f.net = &netStats{}
		snet = &wrapNet{inner: snet, st: f.net}
	}
	parts := []geom.Rect{
		geom.R(world.MinX, world.MinY, mid, world.MaxY),
		geom.R(mid, world.MinY, world.MaxX, world.MaxY),
	}
	if f.coord, err = host.ServeCoordinator(snet, "127.0.0.1:0", coordinator.Config{World: world, Static: parts}, nil); err != nil {
		return f, fmt.Errorf("coordinator: %w", err)
	}
	for range parts {
		cfg := host.ServerConfig{
			Network:     snet,
			Coordinator: f.coord.Addr(),
			ListenAddr:  "127.0.0.1:0",
			Radius:      radius,
			Middleware:  liveMiddleware(),
		}
		if traced {
			cfg.Tracer = trace.New(traceRing)
		}
		s, err := host.StartServer(cfg)
		if err != nil {
			return f, fmt.Errorf("server: %w", err)
		}
		f.servers = append(f.servers, s)
		addr, closer, err := s.ServeMetrics("127.0.0.1:0")
		if err != nil {
			return f, err
		}
		f.scrape = append(f.scrape, addr)
		f.closers = append(f.closers, closer)
	}
	deadline := time.Now().Add(liveBoot)
	for !fleetReady(f.servers) {
		if time.Now().After(deadline) {
			return f, fmt.Errorf("fleet not ready after %v", liveBoot)
		}
		time.Sleep(time.Millisecond)
	}
	for i, s := range f.servers {
		b := s.Core().Bounds()
		home := geom.Pt(mid-liveOffset, (world.MinY+world.MaxY)/2)
		if b.MinX >= mid {
			home.X = mid + liveOffset
		}
		c, err := host.DialClient(host.ClientConfig{
			Network:    &wrapNet{inner: transport.TCPNetwork{}, st: f.net, obs: f.obs, client: i},
			ServerAddr: s.Addr(),
			Client:     gameclient.Config{ID: id.ClientID(i + 1), Pos: home},
		})
		if err != nil {
			return f, fmt.Errorf("client %d: %w", i+1, err)
		}
		f.clients = append(f.clients, c)
		f.homes = append(f.homes, home)
	}
	return f, nil
}

// fleetReady: every server owns a partition and has its overlap tables.
func fleetReady(servers []*host.ServerHost) bool {
	for _, s := range servers {
		if !s.Core().Active() || s.Core().OverlapArea() == 0 {
			return false
		}
	}
	return true
}

// observer records every game update the clients receive: whether it is
// the sender's own echo or the other client's copy, and its latency from
// the update's due time. Each update must arrive exactly once each way.
type observer struct {
	mu      sync.Mutex
	seen    [2][]uint8 // per sender, indexed by sequence: bit 0 echo, bit 1 peer copy
	peerMs  []float64
	dups    int
	whole   int64 // updates seen both ways
	lastRcv time.Time
	// startNs is the first due time; windows[k] holds the echo RTTs of
	// updates due in second k after it.
	startNs int64
	windows [][]float64
}

// reserve allocates the observer's storage for perClient updates per
// client due over the given number of seconds, so recording allocates
// nothing while the heap is watched, and returns its size in bytes.
func (ob *observer) reserve(perClient int64, seconds int) int64 {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	perWindow := liveRate + liveRate/10
	for i := range ob.seen {
		ob.seen[i] = make([]uint8, perClient+1)
	}
	ob.peerMs = make([]float64, 0, 2*perClient)
	ob.windows = make([][]float64, seconds)
	for k := range ob.windows {
		ob.windows[k] = make([]float64, 0, perWindow)
	}
	return 2*(perClient+1) + 8*2*perClient + 8*int64(seconds*perWindow)
}

const (
	seenEcho uint8 = 1 << iota
	seenPeer
)

func (ob *observer) saw(receiver int, u *protocol.GameUpdate, at time.Time) {
	sender := int(u.Client) - 1
	if sender < 0 || sender > 1 {
		return
	}
	bit, lat := seenPeer, dueRTTms(u.SentUnix, at)
	if sender == receiver {
		bit = seenEcho
	}
	ob.mu.Lock()
	defer ob.mu.Unlock()
	s := ob.seen[sender]
	if int(u.Seq) >= len(s) {
		s = append(s, make([]uint8, int(u.Seq)+1-len(s))...)
		ob.seen[sender] = s
	}
	if s[u.Seq]&bit != 0 {
		ob.dups++
		return
	}
	s[u.Seq] |= bit
	if s[u.Seq] == seenEcho|seenPeer {
		ob.whole++
	}
	if bit == seenEcho {
		k := max(int((u.SentUnix-ob.startNs)/int64(time.Second)), 0)
		for len(ob.windows) <= k {
			ob.windows = append(ob.windows, nil)
		}
		ob.windows[k] = append(ob.windows[k], lat)
	} else {
		ob.peerMs = append(ob.peerMs, lat)
	}
	ob.lastRcv = at
}

// complete reports whether n updates have been seen both ways.
func (ob *observer) complete(n int64) bool {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	return ob.whole >= n
}

// missing counts sent updates (sequences 1..sent[i]) lacking their echo
// or their peer copy.
func (ob *observer) missing(sent [2]int64) int64 {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	var n int64
	for i, last := range sent {
		for seq := int64(1); seq <= last; seq++ {
			if seq >= int64(len(ob.seen[i])) || ob.seen[i][seq] != seenEcho|seenPeer {
				n++
			}
		}
	}
	return n
}

// wrapNet is the benchmark's own transport.Network wrapper. On client
// connections it reports received updates to the observer; with st set it
// also times every Send and SendBatch and counts frames and bytes.
type wrapNet struct {
	inner  transport.Network
	st     *netStats
	obs    *observer
	client int
}

func (w *wrapNet) wrap(c transport.Conn) transport.Conn {
	wc := &wrapConn{Conn: c, n: w}
	if w.st != nil {
		w.st.track(wc)
	}
	return wc
}

func (w *wrapNet) Listen(addr string) (transport.Listener, error) {
	l, err := w.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &wrapListener{Listener: l, n: w}, nil
}

func (w *wrapNet) Dial(addr string) (transport.Conn, error) {
	c, err := w.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return w.wrap(c), nil
}

// DialTimeout keeps the host's bounded-dial fast path available.
func (w *wrapNet) DialTimeout(addr string, d time.Duration) (transport.Conn, error) {
	td, ok := w.inner.(transport.TimeoutDialer)
	if !ok {
		return w.Dial(addr)
	}
	c, err := td.DialTimeout(addr, d)
	if err != nil {
		return nil, err
	}
	return w.wrap(c), nil
}

type wrapListener struct {
	transport.Listener
	n *wrapNet
}

func (l *wrapListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.n.wrap(c), nil
}

type wrapConn struct {
	transport.Conn
	n *wrapNet
}

func (c *wrapConn) Send(m protocol.Message) error {
	if c.n.st == nil {
		return c.Conn.Send(m)
	}
	t0 := time.Now()
	err := c.Conn.Send(m)
	c.n.st.sent(time.Since(t0), 1)
	return err
}

func (c *wrapConn) SendBatch(ms []protocol.Message) error {
	if c.n.st == nil {
		return c.Conn.SendBatch(ms)
	}
	t0 := time.Now()
	err := c.Conn.SendBatch(ms)
	c.n.st.sent(time.Since(t0), len(ms))
	return err
}

func (c *wrapConn) Recv() (protocol.Message, error) {
	m, err := c.Conn.Recv()
	if c.n.obs != nil {
		if u, ok := m.(*protocol.GameUpdate); ok {
			c.n.obs.saw(c.n.client, u, time.Now())
		}
	}
	return m, err
}

// netStats accumulates the transport figures of a traced fleet.
type netStats struct {
	mu     sync.Mutex
	conns  []transport.Conn
	sendUs []float64
	frames int64
	msgs   int64
}

func (s *netStats) track(c transport.Conn) {
	s.mu.Lock()
	s.conns = append(s.conns, c)
	s.mu.Unlock()
}

func (s *netStats) sent(d time.Duration, msgs int) {
	s.mu.Lock()
	s.sendUs = append(s.sendUs, float64(d)/1e3)
	s.frames++
	s.msgs += int64(msgs)
	s.mu.Unlock()
}

func (s *netStats) bytesSent() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, c := range s.conns {
		n += c.BytesSent()
	}
	return n
}

// liveRun is one measured open-loop window on a booted fleet.
type liveRun struct {
	sent     [2]int64
	sendErrs int64
	lateMs   [2][]float64 // per client: how late each update was sent
	// benchBytes is the benchmark's own preallocated sample storage,
	// which peak_heap_mb leaves out.
	benchBytes int64
	cpu        time.Duration
	win        *windowSampler
	wall       time.Duration // first due time to last delivery
	mem        memDelta
	queuePeak  int
}

// drive offers the open loop for d: each client sends liveRate/2 updates
// per second on a fixed schedule, stamping each update with its due time.
// It then waits for in-flight deliveries and returns the window's figures.
func drive(f *fleet, seed int64, d time.Duration) *liveRun {
	r := &liveRun{}
	interval := float64(time.Second) / (liveRate / 2)
	n := int64(float64(d) / interval)
	payload := make([]byte, game.Bzflag().PayloadBytes)
	stopQ := make(chan struct{})
	var qwg sync.WaitGroup
	if f.net != nil {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			t := time.NewTicker(time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopQ:
					return
				case <-t.C:
				}
				for _, s := range f.servers {
					r.queuePeak = max(r.queuePeak, s.Game().Stats().QueueLen)
				}
			}
		}()
	}
	for i := range r.lateMs {
		r.lateMs[i] = make([]float64, 0, n)
	}
	r.benchBytes = 2*8*n + f.obs.reserve(n, int((d+time.Second-1)/time.Second))
	// The live-heap figure only moves at the end of a collection: collect
	// now so it includes the storage just reserved, which is subtracted.
	runtime.GC()
	m0, c0 := readMem(), cpuTime()
	start := time.Now().Add(10 * time.Millisecond)
	f.obs.mu.Lock()
	f.obs.startNs = start.UnixNano()
	f.obs.mu.Unlock()
	r.win = startWindows(start)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, c := range f.clients {
		wg.Add(1)
		go func(i int, c *host.ClientHost) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(seed*7919 + int64(i)))
			prof := game.Bzflag()
			home := f.homes[i]
			jit := func(a float64) geom.Point {
				return geom.Pt(home.X+(rnd.Float64()*2-1)*a, home.Y+(rnd.Float64()*2-1)*a)
			}
			late := r.lateMs[i]
			var errs int64
			// The clients' schedules interleave, half an interval apart.
			offset := float64(i) * interval / 2
			for k := int64(0); k < n; k++ {
				due := start.Add(time.Duration(offset + float64(k)*interval))
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				cl := c.Client()
				var u *protocol.GameUpdate
				switch x := rnd.Float64(); {
				case x < prof.MoveFraction:
					u = cl.MakeMove(jit(liveJitter))
				case x < prof.MoveFraction+prof.ActionFraction:
					u = cl.MakeAction(protocol.KindAction, jit(liveJitter+prof.ActionRange/8))
				default:
					u = cl.MakeAction(protocol.KindChat, cl.Pos())
				}
				u.SentUnix = due.UnixNano()
				u.Payload = payload
				late = append(late, float64(time.Since(due))/1e6)
				if c.Send(u) != nil {
					errs++
				}
			}
			mu.Lock()
			r.sent[i] = n
			r.sendErrs += errs
			r.lateMs[i] = late
			mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	r.win.Stop()
	deadline := time.Now().Add(liveDrain)
	for !f.obs.complete(r.attempted()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.cpu = cpuTime() - c0
	r.mem = diffMem(m0, readMem())
	close(stopQ)
	qwg.Wait()
	f.obs.mu.Lock()
	r.wall = f.obs.lastRcv.Sub(start)
	f.obs.mu.Unlock()
	return r
}

// windowSampler closes a one-second window at each second after the open
// loop's start: the process CPU time spent in it and the largest live
// heap seen in it, sampled every 20 ms.
type windowSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	cpu  []time.Duration
	heap []uint64
}

func startWindows(start time.Time) *windowSampler {
	w := &windowSampler{stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		time.Sleep(time.Until(start))
		c0, next := cpuTime(), start.Add(time.Second)
		var peak uint64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		edge := time.NewTimer(time.Until(next))
		defer edge.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				if s[0].Value.Kind() == metrics.KindUint64 {
					peak = max(peak, s[0].Value.Uint64())
				}
			case <-edge.C:
				c := cpuTime()
				w.cpu = append(w.cpu, c-c0)
				w.heap = append(w.heap, peak)
				c0, peak, next = c, 0, next.Add(time.Second)
				edge.Reset(time.Until(next))
			}
		}
	}()
	return w
}

// Stop ends sampling; the windows closed so far stay readable.
func (w *windowSampler) Stop() {
	close(w.stop)
	w.wg.Wait()
}

func (r *liveRun) attempted() int64 { return r.sent[0] + r.sent[1] }

// checkLive fails the run on a duplicate delivery or a client switch (the
// workload never crosses the boundary), and returns the updates that
// missed their echo or their peer copy.
func checkLive(f *fleet, r *liveRun, rep *report) int64 {
	f.obs.mu.Lock()
	dups := f.obs.dups
	f.obs.mu.Unlock()
	if dups > 0 {
		rep.fail("%d duplicate deliveries", dups)
	}
	for i, c := range f.clients {
		if sw := c.Client().Stats().Switches; sw != 0 {
			rep.fail("client %d switched servers %d times", i+1, sw)
		}
	}
	return f.obs.missing(r.sent)
}

// runLoopback runs the live workload: with -trace 0 the end-to-end
// figures; with -trace 1 an untraced window of half the time, then a
// traced one of the full time — a server ticks 100 times a second, and
// the host tick p99 needs 1000 ticks.
func runLoopback(o opts, rep *report) (int64, int64, error) {
	if o.trace {
		return liveLayers(o, rep)
	}
	var setups []float64
	var f *fleet
	for i := 0; i < liveSetupReps; i++ {
		t0 := time.Now()
		next, err := bootFleet(false)
		if err != nil {
			return 0, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if f != nil {
			f.Close()
		}
		f = next
	}
	defer f.Close()
	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d fleet boots + client joins", liveSetupReps))

	steal0 := stealTime()
	r := drive(f, o.seed, secondsDur(o.seconds))
	steal := stealTime() - steal0
	failed := checkLive(f, r, rep) + r.sendErrs
	attempted := r.attempted()
	f.obs.mu.Lock()
	echo := slices.Concat(f.obs.windows...)
	peer := slices.Clone(f.obs.peerMs)
	f.obs.mu.Unlock()
	slices.Sort(echo)
	slices.Sort(peer)

	rep.set("throughput_per_s", float64(len(echo))/r.wall.Seconds(),
		fmt.Sprintf("echoes per second at %d/s offered, %d echoes", liveRate, len(echo)))
	// Another guest on the machine stalls this one in bursts, and one
	// burst moves a whole run's figures. The medians over one-second
	// windows (by due time) do not follow it.
	var cpuUs, heapMB []float64
	for k := range r.win.cpu {
		cpuUs = append(cpuUs, float64(r.win.cpu[k].Microseconds())/liveRate)
		heapMB = append(heapMB, float64(r.win.heap[k])/(1<<20))
	}
	if len(cpuUs) < 3 {
		rep.fail("only %d one-second windows sampled", len(cpuUs))
	}
	rep.set("cpu_us_per_update", median(cpuUs),
		fmt.Sprintf("process CPU (fleet + clients) per update, median over %d one-second windows", len(cpuUs)))
	rep.info("cpu_us_per_update_all", float64(r.cpu.Microseconds())/float64(attempted), "us",
		fmt.Sprintf("whole run, %d updates", attempted))
	var means, tails []float64
	f.obs.mu.Lock()
	for _, w := range f.obs.windows {
		slices.Sort(w)
		if t, err := tailMean(w, tailShare); err == nil {
			means = append(means, mean(w))
			tails = append(tails, t)
		}
	}
	f.obs.mu.Unlock()
	if len(tails) < 3 {
		rep.fail("only %d one-second windows with a measurable tail", len(tails))
	}
	rep.set("echo_mean_ms", median(means), fmt.Sprintf("RTT from due time, median over %d one-second windows of the mean", len(means)))
	rep.set("echo_tail_ms", median(tails), fmt.Sprintf("median over %d one-second windows of the slowest-5%% mean", len(tails)))
	rep.info("echo_mean_all_ms", mean(echo), "ms", fmt.Sprintf("whole run, n=%d", len(echo)))
	if t, err := tailMean(echo, tailShare); err == nil {
		rep.info("echo_tail_all_ms", t, "ms", "whole run")
	}
	printPercentiles(rep, echo)
	rep.info("steal_s", steal, "s", "CPU time the hypervisor gave to other guests during the window")
	bench := float64(r.benchBytes) / (1 << 20)
	rep.set("peak_heap_mb", median(heapMB)-bench, fmt.Sprintf(
		"median over %d one-second windows of the peak live heap, less %.1f MB of the benchmark's own sample storage", len(heapMB), bench))
	if len(heapMB) > 0 {
		rep.info("peak_heap_all_mb", slices.Max(heapMB)-bench, "MB", "whole run")
	}
	if q := highestTail(len(peer)); q > 0 {
		rep.info(fmt.Sprintf("peer_p%g_ms", q*100), peer[rankIndex(len(peer), q)], "ms",
			fmt.Sprintf("due time to the other client, n=%d", len(peer)))
	}
	rep.info("fail_frac", failFrac(failed, attempted), "fraction", fmt.Sprintf("%d of %d updates", failed, attempted))
	return attempted, failed, nil
}

// liveLayers is the -trace 1 run of the loopback workload.
func liveLayers(o opts, rep *report) (int64, int64, error) {
	base, err := bootFleet(false)
	if err != nil {
		return 0, 0, err
	}
	br := drive(base, o.seed, secondsDur(o.seconds/2))
	bfail := checkLive(base, br, rep) + br.sendErrs
	base.Close()

	f, err := bootFleet(true)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := drive(f, o.seed, secondsDur(o.seconds))
	failed := checkLive(f, r, rep) + r.sendErrs
	attempted := r.attempted()

	cpuBase := float64(br.cpu) / float64(br.attempted())
	cpuTraced := float64(r.cpu) / float64(attempted)
	rep.set("host.trace_overhead_frac", cpuTraced/cpuBase-1, "traced vs untraced CPU per update")

	scr, err := scrapeAll(f.scrape)
	if err != nil {
		return 0, 0, err
	}
	tickMean := func(name string) float64 { return ratio(scr.sum(name+"_sum"), scr.sum(name+"_count")) }
	rep.set("host.tick_drain_ms", tickMean("matrix_tick_drain_ms"), "mean per tick")
	rep.set("host.tick_process_ms", tickMean("matrix_tick_process_ms"), "mean per tick")
	rep.set("host.tick_route_ms", tickMean("matrix_tick_route_ms"), "mean per tick")
	n := int(scr.min("matrix_tick_total_ms_count"))
	if b := beyond(n, 0.99); b < minBeyond {
		rep.fail("host tick p99 from %d ticks has %d beyond it", n, b)
	}
	rep.set("host.tick_total_p99_ms", scr.max(`matrix_tick_total_ms{quantile="0.99"}`),
		fmt.Sprintf("worst server, %d+ ticks each", n))

	st := f.net
	sendUs := slices.Clone(st.sendUs)
	slices.Sort(sendUs)
	sp99, err := quantile(sendUs, 0.99)
	if err != nil {
		rep.fail("send p99: %v", err)
	}
	rep.set("transport.frames_sent", float64(st.frames), "all connections")
	rep.set("transport.bytes_per_update", float64(st.bytesSent())/float64(attempted), "all connections")
	rep.set("transport.send_p99_us", sp99, fmt.Sprintf("n=%d, %d beyond", len(sendUs), beyond(len(sendUs), 0.99)))
	rep.set("transport.msgs_per_batch", ratio(float64(st.msgs), float64(st.frames)), "messages per frame")

	rep.set("middleware.admitted", scr.sumPrefix("matrix_mw_admitted_total{"), "both servers")
	rep.set("middleware.shed", scr.sum(`matrix_mw_dropped_total{reason="overload-shed"}`), "")
	rep.set("middleware.rate_limited", scr.sum(`matrix_mw_dropped_total{reason="rate-limited"}`), "")
	late := slices.Concat(r.lateMs[:]...)
	slices.Sort(late)
	lp99, err := quantile(late, 0.99)
	if err != nil {
		rep.fail("loadgen lateness: %v", err)
	}
	rep.set("loadgen.late_p99_ms", lp99, fmt.Sprintf("n=%d", len(late)))

	var gs gameserver.Stats
	var cs core.Stats
	for _, s := range f.servers {
		addGameStats(&gs, s.Game().Stats())
		addCoreStats(&cs, s.Core().Stats())
	}
	reportGameCore(rep, gs, cs, r.queuePeak)
	rep.set("runtime.allocs_per_update", float64(br.mem.mallocs)/float64(br.attempted()), "untraced window")
	rep.set("runtime.bytes_per_update", float64(br.mem.bytes)/float64(br.attempted()), "untraced window")
	rep.set("runtime.gc_count", float64(br.mem.gcs), "untraced window")
	rep.set("runtime.gc_pause_ms", br.mem.pauseMs, "untraced window")
	mc := f.coord.MC()
	rep.set("coordinator.splits", float64(mc.Splits()), "static partitions")
	rep.set("coordinator.reclaims", float64(mc.Reclaims()), "static partitions")
	rep.set("coordinator.peak_servers", float64(len(mc.ActiveServers())), "static partitions")
	rep.notExercised("sim.", "runtime.allocs_per_tick")
	return attempted + br.attempted(), failed + bfail, nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// scrape is the union of the servers' /metrics samples, keyed by series
// name with labels, one value per server.
type scrape map[string][]float64

func scrapeAll(addrs []string) (scrape, error) {
	out := scrape{}
	for _, a := range addrs {
		resp, err := http.Get("http://" + a + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", a, err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			out[line[:i]] = append(out[line[:i]], v)
		}
		err = sc.Err()
		_ = resp.Body.Close() // read fully; a close error changes nothing
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", a, err)
		}
	}
	return out, nil
}

func (s scrape) sum(key string) float64 {
	var t float64
	for _, v := range s[key] {
		t += v
	}
	return t
}

func (s scrape) sumPrefix(prefix string) float64 {
	var t float64
	for k := range s {
		if strings.HasPrefix(k, prefix) {
			t += s.sum(k)
		}
	}
	return t
}

func (s scrape) max(key string) float64 {
	if len(s[key]) == 0 {
		return 0
	}
	return slices.Max(s[key])
}

func (s scrape) min(key string) float64 {
	if len(s[key]) == 0 {
		return 0
	}
	return slices.Min(s[key])
}
