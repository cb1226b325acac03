// Command perfbench is the repository benchmark. One invocation runs one
// workload for one seed and prints every metric by name with its unit,
// then, as its last line, one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the JSON carries the end-to-end metrics, measured with
// tracing off; with -trace 1 it carries the per-layer metrics from a traced
// run, plus the tracing overhead against an untraced run of the same seed.
// The benchmark drives the system only through its public calls: sim.New,
// Start, Step, Finish, SetTracer, Node and MC for the simulated workloads,
// and host.ServeCoordinator, StartServer, DialClient and ServeMetrics over
// loopback TCP for the live one.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload flashcrowd --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// endToEnd and perLayer name the metrics each mode reports, in print
// order. BENCHMARK.json lists the same names (TestBenchmarkFileNames).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"cpu_us_per_update", "us"},
	{"echo_mean_ms", "ms"},
	{"echo_tail_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"sim.phase_a_ms_per_tick", "ms"},
	{"sim.phase_b_ms_per_tick", "ms"},
	{"sim.load_report_ms_per_tick", "ms"},
	{"sim.driver_ms_per_tick", "ms"},
	{"sim.server_process_p99_us", "us"},
	{"sim.worker_occupancy", "fraction"},
	{"sim.trace_overhead_frac", "fraction"},
	{"gameserver.processed", "count"},
	{"gameserver.dropped", "count"},
	{"gameserver.delivered", "count"},
	{"gameserver.fanout", "msgs"},
	{"gameserver.redirects", "count"},
	{"gameserver.state_moved", "count"},
	{"gameserver.queue_peak", "count"},
	{"core.game_in", "count"},
	{"core.peer_out", "count"},
	{"core.peer_bytes_out", "bytes"},
	{"core.forward_ratio", "fraction"},
	{"core.range_rejected", "count"},
	{"core.split_grant_ratio", "fraction"},
	{"core.reclaim_grant_ratio", "fraction"},
	{"coordinator.splits", "count"},
	{"coordinator.reclaims", "count"},
	{"coordinator.peak_servers", "count"},
	{"runtime.allocs_per_tick", "allocs"},
	{"runtime.allocs_per_update", "allocs"},
	{"runtime.bytes_per_update", "bytes"},
	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"host.tick_drain_ms", "ms"},
	{"host.tick_process_ms", "ms"},
	{"host.tick_route_ms", "ms"},
	{"host.tick_total_p99_ms", "ms"},
	{"host.trace_overhead_frac", "fraction"},
	{"transport.frames_sent", "count"},
	{"transport.bytes_per_update", "bytes"},
	{"transport.send_p99_us", "us"},
	{"transport.msgs_per_batch", "msgs"},
	{"middleware.admitted", "count"},
	{"middleware.shed", "count"},
	{"middleware.rate_limited", "count"},
	{"loadgen.late_p99_ms", "ms"},
}

// metricDef is one reported metric's name and unit.
type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's figures and prints each as it is set. The
// mode's metrics (set) also go into the closing JSON; supporting figures
// (info), such as tick_p99_ms, which only one kind of workload has, are
// printed only.
type report struct {
	out     *bufio.Writer
	defs    []metricDef
	metrics map[string]metric
	fails   []string
}

func newReport(defs []metricDef) *report {
	return &report{out: bufio.NewWriter(os.Stdout), defs: defs, metrics: map[string]metric{}}
}

// set records one of the mode's metrics; note gives its sample count or
// basis. Setting a name outside the mode's list is a bug.
func (r *report) set(name string, v float64, note string) {
	for _, d := range r.defs {
		if d.name == name {
			r.metrics[name] = metric{Value: v, Unit: d.unit}
			r.line("metric", name, v, d.unit, note)
			return
		}
	}
	panic("perfbench: unlisted metric " + name)
}

// info prints a supporting figure that is not part of the JSON.
func (r *report) info(name string, v float64, unit, note string) {
	r.line("info", name, v, unit, note)
}

func (r *report) line(kind, name string, v float64, unit, note string) {
	fmt.Fprintf(r.out, "%-6s %-28s %14.6g %-8s %s\n", kind, name, v, unit, note)
}

// notExercised sets to zero every unset metric under the given layer
// prefixes: that layer does no work on this workload.
func (r *report) notExercised(prefixes ...string) {
	for _, d := range r.defs {
		if _, ok := r.metrics[d.name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.set(d.name, 0, "layer not exercised by this workload")
			}
		}
	}
}

// fail marks the run incorrect; the reason is printed with the result.
func (r *report) fail(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// finish prints the closing JSON. A run missing one of the mode's metrics,
// or failing a correctness check, reports correct=false.
func (r *report) finish(attempted, failed int64) error {
	for _, d := range r.defs {
		if _, ok := r.metrics[d.name]; !ok {
			r.fail("metric %s not measured", d.name)
		}
	}
	for _, f := range r.fails {
		fmt.Fprintf(r.out, "FAIL   %s\n", f)
	}
	b, err := json.Marshal(result{
		Correct:   len(r.fails) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "%s\n", b)
	return r.out.Flush()
}

// stampEnv prints the machine the figures came from. Figures from
// different machines are never compared.
func stampEnv(r *report) {
	fmt.Fprintf(r.out, "env    nproc=%d gomaxprocs=%d cpu=%q go=%s network=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(),
		"loopback, not a real link")
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the machine's total steal time so far in seconds: time
// the hypervisor ran other guests while this one wanted the CPU. Printed
// beside wall-time figures to explain a slow run; 0 where unavailable.
func stealTime() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / 100 // USER_HZ
}

// heapPeak samples the live heap (bytes marked live by the last GC) until
// stopped and keeps the maximum: the run's memory footprint, independent
// of when the collector happened to run.
type heapPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.peak = max(h.peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MiB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// memDelta is the allocation and GC work between two MemStats reads.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pauseMs             float64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{
		mallocs: b.Mallocs - a.Mallocs,
		bytes:   b.TotalAlloc - a.TotalAlloc,
		gcs:     uint64(b.NumGC - a.NumGC),
		pauseMs: float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6,
	}
}

// opts is one invocation's arguments.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps each workload name to its runner. Each runner fills the
// report and returns the updates it offered and how many of them failed.
var workloads = map[string]func(opts, *report) (int64, int64, error){
	"flashcrowd":    runSim,
	"reclaimstress": runSim,
	"loopback":      runLoopback,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: flashcrowd, reclaimstress or loopback")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 15, "how long to measure")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (flashcrowd, reclaimstress, loopback)", *workload)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", *seconds)
	}
	o := opts{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	rep := newReport(defs)
	fmt.Fprintf(rep.out, "run    workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, *traceFlag)
	stampEnv(rep)
	attempted, failed, err := runner(o, rep)
	if err != nil {
		return err
	}
	if attempted < 1 {
		rep.fail("no updates offered")
	}
	return rep.finish(attempted, failed)
}
