package main

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"time"

	"matrix/internal/core"
	"matrix/internal/experiments"
	"matrix/internal/gameserver"
	"matrix/internal/id"
	"matrix/internal/sim"
	"matrix/internal/trace"
)

// simWorkers is the intra-sim worker pool size for both sim workloads. It
// never changes results (the fingerprint is worker-independent), only
// their cost.
const simWorkers = 2

// setupReps is how many times a run builds and starts a fresh simulation
// to time set-up; the median is reported.
const setupReps = 31

// traceRing bounds the tracer's event ring. The per-layer figures come
// from the engine histograms, not the ring; the ring only has to be large
// enough that the tracer's own cost is the real one.
const traceRing = 1 << 16

// simPass is one complete scenario run. Every repeat of a seed steps the
// same ticks, so passes pool into one distribution.
type simPass struct {
	fingerprint [32]byte
	stepMs      []float64 // wall time of each Step
	stepWall    time.Duration
	cpu         time.Duration
	mem         memDelta
	active      []int // active servers during each tick
	serverSecs  float64
	queuePeak   int
	res         *sim.Result
	gs          gameserver.Stats // summed over the fleet
	cs          core.Stats       // summed over the fleet
	splits      int
	reclaims    int
	attempted   int64
	failed      int64
}

// scriptSeed fixes the scenario script: where and when the crowds land.
// Landing spots decide how many splits a flash crowd forces, which moves
// the whole run's cost by a third from one script to the next — a
// different workload, not noise. So every benchmark seed runs the
// script of seed 1 (the repository's default seed), and the benchmark
// seed drives everything else: the simulation's RNG, hence where each
// client spawns within its crowd, how it moves and what it sends.
// reclaimstress's script does not depend on a seed at all.
const scriptSeed = 1

// simConfig is the workload's scenario table entry; the program sees only
// this config.
func simConfig(o opts) (sim.Config, error) {
	sc, ok := experiments.ScenarioByName(o.workload)
	if !ok {
		return sim.Config{}, fmt.Errorf("no scenario %q", o.workload)
	}
	cfg := sc.Config(scriptSeed)
	cfg.Seed = o.seed
	cfg.SimWorkers = simWorkers
	return cfg, nil
}

func newStartedSim(cfg sim.Config) (*sim.Sim, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("sim.New: %w", err)
	}
	if err := s.Start(); err != nil {
		return nil, fmt.Errorf("sim.Start: %w", err)
	}
	return s, nil
}

type simNode struct {
	core *core.Server
	gs   *gameserver.Server
}

// simNodes lists the fleet's server slots (ids 1..MaxServers).
func simNodes(s *sim.Sim, cfg sim.Config) []simNode {
	var out []simNode
	for i := 1; i <= cfg.MaxServers; i++ {
		if c, g, ok := s.Node(id.ServerID(i)); ok {
			out = append(out, simNode{c, g})
		}
	}
	return out
}

// runSimPass steps one scenario to the end. With a tracer attached the
// engine feeds its phase histograms; sampleQueues polls every game
// server's queue after each Step, outside the timed call.
func runSimPass(cfg sim.Config, tr *trace.Tracer, sampleQueues bool) (*simPass, error) {
	s, err := newStartedSim(cfg)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		s.SetTracer(tr)
	}
	nodes := simNodes(s, cfg)
	p := &simPass{}
	m0, c0 := readMem(), cpuTime()
	for !s.Done() {
		t0 := time.Now()
		if err := s.Step(); err != nil {
			return nil, fmt.Errorf("sim.Step: %w", err)
		}
		d := time.Since(t0)
		p.stepWall += d
		p.stepMs = append(p.stepMs, float64(d)/1e6)
		p.active = append(p.active, len(s.MC().ActiveServers()))
		if sampleQueues {
			for _, n := range nodes {
				p.queuePeak = max(p.queuePeak, n.gs.Stats().QueueLen)
			}
		}
	}
	p.res = s.Finish()
	p.cpu = cpuTime() - c0
	p.mem = diffMem(m0, readMem())
	p.fingerprint = sha256.Sum256([]byte(p.res.Fingerprint()))
	for _, n := range nodes {
		addGameStats(&p.gs, n.gs.Stats())
		addCoreStats(&p.cs, n.core.Stats())
	}
	p.splits, p.reclaims = s.MC().Splits(), s.MC().Reclaims()
	p.serverSecs = serverSeconds(p.active, s.NextTime()/float64(s.Tick()))
	// An update either came back as an echo or was lost on the way:
	// dropped at a full queue, shed or rate-limited by the chain, or lost
	// to network emulation.
	p.failed = int64(p.res.DroppedPackets + p.res.AdmissionShed + p.res.RateLimited + p.res.NetemLost)
	p.attempted = int64(p.res.Latency.Count()) + p.failed
	return p, nil
}

// runSimPasses repeats full passes until seconds have elapsed and at
// least minPasses ran. Every pass must fingerprint as *want (set by the
// first pass when zero): the same seed must give the same run, traced or
// not.
func runSimPasses(cfg sim.Config, seconds float64, minPasses int, traced bool, want *[32]byte, rep *report) ([]*simPass, error) {
	var passes []*simPass
	start := time.Now()
	for len(passes) < minPasses || time.Since(start).Seconds() < seconds {
		var tr *trace.Tracer
		if traced {
			tr = trace.New(traceRing)
		}
		p, err := runSimPass(cfg, tr, traced)
		if err != nil {
			return nil, err
		}
		if *want == ([32]byte{}) {
			*want = p.fingerprint
		} else if p.fingerprint != *want {
			rep.fail("fingerprint sha256 %x (traced=%v, pass %d) differs from %x", p.fingerprint[:8], traced, len(passes)+1, want[:8])
		}
		checkSimPass(p, rep)
		if len(passes) > 0 {
			// Only the first pass's result is read; the others' latency
			// samples would only inflate the heap being measured.
			p.res = nil
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// checkSimPass cross-checks the run's own accounting through the public
// accessors: the per-node counters sum to the result's totals, and
// updates did come back. (The result's errors/* counters are not checked:
// servers legitimately reject packets in flight across a topology change,
// and count them there.)
func checkSimPass(p *simPass, rep *report) {
	delivered, dropped, peerOut := p.gs.Delivered, p.gs.Dropped, p.cs.PeerPacketsOut
	if delivered != p.res.DeliveredUpdates || dropped != p.res.DroppedPackets || peerOut != p.res.ForwardedPackets {
		rep.fail("node counters (delivered %d, dropped %d, forwarded %d) disagree with the result (%d, %d, %d)",
			delivered, dropped, peerOut, p.res.DeliveredUpdates, p.res.DroppedPackets, p.res.ForwardedPackets)
	}
	if p.res.Latency.Count() == 0 {
		rep.fail("no echoes")
	}
}

// bestSteps is each tick's fastest Step over the passes (ms). Passes of
// one seed step identical ticks, so the per-tick minimum removes the
// stalls another guest on the machine put into any single pass.
func bestSteps(passes []*simPass) []float64 {
	best := slices.Clone(passes[0].stepMs)
	for _, p := range passes[1:] {
		for i, d := range p.stepMs {
			best[i] = min(best[i], d)
		}
	}
	return best
}

// pooled sums the passes' work.
type pooled struct {
	ticks             int
	stepWall, cpu     time.Duration
	attempted, failed int64
	mallocs, bytes    uint64
	gcs               uint64
	pauseMs           float64
}

func pool(passes []*simPass) pooled {
	var pl pooled
	for _, p := range passes {
		pl.ticks += len(p.stepMs)
		pl.stepWall += p.stepWall
		pl.cpu += p.cpu
		pl.attempted += p.attempted
		pl.failed += p.failed
		pl.mallocs += p.mem.mallocs
		pl.bytes += p.mem.bytes
		pl.gcs += p.mem.gcs
		pl.pauseMs += p.mem.pauseMs
	}
	return pl
}

// runSim runs a scenario workload: with -trace 0 the end-to-end figures,
// with -trace 1 an untraced then a traced half of the time, for the
// per-layer figures and the tracing overhead.
func runSim(o opts, rep *report) (int64, int64, error) {
	cfg, err := simConfig(o)
	if err != nil {
		return 0, 0, err
	}
	var want [32]byte
	if o.trace {
		return simLayers(o, cfg, &want, rep)
	}

	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := time.Now()
		if _, err := newStartedSim(cfg); err != nil {
			return 0, 0, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	rep.set("setup_s", median(setups), fmt.Sprintf("median of %d sim.New+Start", setupReps))

	heap := startHeapPeak()
	steal0 := stealTime()
	passes, err := runSimPasses(cfg, o.seconds, 2, false, &want, rep)
	steal := stealTime() - steal0
	peak := heap.Stop()
	if err != nil {
		return 0, 0, err
	}
	pl := pool(passes)
	first := passes[0]
	best := bestSteps(passes)
	tps := float64(len(best)) / (sumf(best) / 1e3)
	rep.set("throughput_per_s", tps, fmt.Sprintf("sim ticks per host second, each tick's best of %d passes, %d ticks", len(passes), len(best)))
	rep.set("cpu_us_per_update", float64(pl.cpu.Microseconds())/float64(pl.attempted),
		fmt.Sprintf("process CPU over %d offered updates", pl.attempted))
	lat := first.res.Latency.Samples()
	slices.Sort(lat)
	tail, err := tailMean(lat, tailShare)
	if err != nil {
		rep.fail("echo tail: %v", err)
	}
	rep.set("echo_mean_ms", mean(lat), fmt.Sprintf("simulated action→echo, n=%d", len(lat)))
	rep.set("echo_tail_ms", tail, fmt.Sprintf("mean of the slowest 5%%, %d samples", len(lat)-rankIndex(len(lat), tailShare)))
	printPercentiles(rep, lat)
	rep.set("peak_heap_mb", peak, "peak live heap")

	var each []string
	for _, p := range passes {
		each = append(each, fmt.Sprintf("%.4g", float64(len(p.stepMs))/p.stepWall.Seconds()))
	}
	rep.info("sim_ticks_per_s", float64(pl.ticks)/pl.stepWall.Seconds(), "1/s",
		fmt.Sprintf("all %d ticks of %d passes; per pass %s", pl.ticks, len(passes), strings.Join(each, ", ")))
	sorted := slices.Clone(best)
	slices.Sort(sorted)
	if q, err := quantile(sorted, 0.99); err != nil {
		rep.fail("tick_p99_ms: %v", err)
	} else {
		rep.info("tick_p99_ms", q, "ms", fmt.Sprintf("wall per Step, best of %d passes, n=%d, %d beyond", len(passes), len(sorted), beyond(len(sorted), 0.99)))
	}
	rep.info("steal_s", steal, "s", "CPU time the hypervisor gave to other guests during the passes")
	rep.info("server_seconds", first.serverSecs, "s", "active servers integrated over simulated time")
	rep.info("fail_frac", failFrac(pl.failed, pl.attempted), "fraction", fmt.Sprintf("%d of %d updates", pl.failed, pl.attempted))
	fmt.Fprintf(rep.out, "check  fingerprint sha256 %x, %d passes\n", want, len(passes))
	return pl.attempted, pl.failed, nil
}

// simLayers is the -trace 1 run of a scenario workload.
func simLayers(o opts, cfg sim.Config, want *[32]byte, rep *report) (int64, int64, error) {
	base, err := runSimPasses(cfg, o.seconds/2, 1, false, want, rep)
	if err != nil {
		return 0, 0, err
	}
	traced, err := runSimPasses(cfg, o.seconds/2, 1, true, want, rep)
	if err != nil {
		return 0, 0, err
	}
	bp, tp := pool(base), pool(traced)
	fmt.Fprintf(rep.out, "check  fingerprint sha256 %x, %d untraced and %d traced passes\n", *want, len(base), len(traced))
	overhead := ratio(tp.stepWall.Seconds()/float64(tp.ticks), bp.stepWall.Seconds()/float64(bp.ticks)) - 1
	rep.set("sim.trace_overhead_frac", overhead,
		fmt.Sprintf("traced vs untraced wall per tick, %d vs %d ticks", tp.ticks, bp.ticks))

	t := traced[0]
	ticks := float64(len(t.stepMs))
	h := t.res.Metrics.Histogram
	sum := func(name string) float64 { return h(name).Mean() * float64(h(name).Count()) }
	a, b, lr, tick := sum("engine/phase-a-ms"), sum("engine/phase-b-ms"), sum("engine/load-report-ms"), sum("engine/tick-ms")
	rep.set("sim.phase_a_ms_per_tick", a/ticks, "parallel per-server work")
	rep.set("sim.phase_b_ms_per_tick", b/ticks, "serial routing")
	rep.set("sim.load_report_ms_per_tick", lr/ticks, "load reports and topology decisions")
	rep.set("sim.driver_ms_per_tick", (tick-a-b-lr)/ticks, "script, traffic, hellos, sampling")
	sp := h("engine/server-process-us")
	rep.set("sim.server_process_p99_us", sp.Quantile(0.99), fmt.Sprintf("n=%d, %d beyond", sp.Count(), beyond(sp.Count(), 0.99)))
	rep.set("sim.worker_occupancy", h("engine/worker-occupancy").Mean(), fmt.Sprintf("mean over %d ticks, %d workers", h("engine/worker-occupancy").Count(), simWorkers))

	reportGameCore(rep, t.gs, t.cs, t.queuePeak)
	rep.set("coordinator.splits", float64(t.splits), "")
	rep.set("coordinator.reclaims", float64(t.reclaims), "")
	rep.set("coordinator.peak_servers", float64(slices.Max(t.active)), "")
	rep.info("server_seconds", t.serverSecs, "s", "active servers integrated over simulated time")

	rep.set("runtime.allocs_per_tick", float64(bp.mallocs)/float64(bp.ticks), "untraced passes")
	rep.set("runtime.allocs_per_update", float64(bp.mallocs)/float64(bp.attempted), "untraced passes")
	rep.set("runtime.bytes_per_update", float64(bp.bytes)/float64(bp.attempted), "untraced passes")
	rep.set("runtime.gc_count", float64(bp.gcs)/float64(len(base)), "per pass")
	rep.set("runtime.gc_pause_ms", bp.pauseMs/float64(len(base)), "per pass")
	rep.notExercised("host.", "transport.", "middleware.", "loadgen.")
	return bp.attempted + tp.attempted, bp.failed + tp.failed, nil
}

func addGameStats(dst *gameserver.Stats, s gameserver.Stats) {
	dst.Processed += s.Processed
	dst.Dropped += s.Dropped
	dst.Delivered += s.Delivered
	dst.Redirects += s.Redirects
	dst.StateMoved += s.StateMoved
}

func addCoreStats(dst *core.Stats, s core.Stats) {
	dst.GamePacketsIn += s.GamePacketsIn
	dst.PeerPacketsOut += s.PeerPacketsOut
	dst.PeerBytesOut += s.PeerBytesOut
	dst.RangeRejected += s.RangeRejected
	dst.SplitsRequested += s.SplitsRequested
	dst.SplitsGranted += s.SplitsGranted
	dst.ReclaimRequested += s.ReclaimRequested
	dst.ReclaimGranted += s.ReclaimGranted
}

// reportGameCore sets the gameserver and core layer figures, which both
// the simulated and the live fleet expose through the same accessors.
func reportGameCore(rep *report, gs gameserver.Stats, cs core.Stats, queuePeak int) {
	rep.set("gameserver.processed", float64(gs.Processed), "")
	rep.set("gameserver.dropped", float64(gs.Dropped), "")
	rep.set("gameserver.delivered", float64(gs.Delivered), "")
	rep.set("gameserver.fanout", ratio(float64(gs.Delivered), float64(gs.Processed)), "delivered per processed")
	rep.set("gameserver.redirects", float64(gs.Redirects), "")
	rep.set("gameserver.state_moved", float64(gs.StateMoved), "")
	rep.set("gameserver.queue_peak", float64(queuePeak), "")
	rep.set("core.game_in", float64(cs.GamePacketsIn), "")
	rep.set("core.peer_out", float64(cs.PeerPacketsOut), "")
	rep.set("core.peer_bytes_out", float64(cs.PeerBytesOut), "")
	rep.set("core.forward_ratio", ratio(float64(cs.PeerPacketsOut), float64(cs.GamePacketsIn)), "peer forwards per game packet")
	rep.set("core.range_rejected", float64(cs.RangeRejected), "")
	rep.set("core.split_grant_ratio", ratio(float64(cs.SplitsGranted), float64(cs.SplitsRequested)),
		fmt.Sprintf("%d of %d", cs.SplitsGranted, cs.SplitsRequested))
	rep.set("core.reclaim_grant_ratio", ratio(float64(cs.ReclaimGranted), float64(cs.ReclaimRequested)),
		fmt.Sprintf("%d of %d", cs.ReclaimGranted, cs.ReclaimRequested))
}

// tailShare is the quantile above which echo_tail_ms averages: the
// slowest 5%. The slowest 1% of live RTTs is set by how long another guest
// on the machine stalled this one, and moved by a third between runs; the
// slowest 5% still grows with every queue on the echo path.
const tailShare = 0.95

// printPercentiles prints the median and p99 of sorted echo latencies
// (ms) with their sample counts.
func printPercentiles(rep *report, sorted []float64) {
	n := len(sorted)
	if n == 0 {
		return
	}
	rep.info("echo_p50_ms", sorted[rankIndex(n, 0.5)], "ms", fmt.Sprintf("n=%d", n))
	p99, err := quantile(sorted, 0.99)
	if err != nil {
		rep.fail("echo p99: %v", err)
	}
	rep.info("echo_p99_ms", p99, "ms", fmt.Sprintf("n=%d, %d beyond", n, beyond(n, 0.99)))
}
