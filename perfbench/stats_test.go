package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"matrix/internal/id"
	"matrix/internal/protocol"
)

func updateFrom(client, seq int) *protocol.GameUpdate {
	return &protocol.GameUpdate{Client: id.ClientID(client), Seq: id.PacketSeq(seq)}
}

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1000, 0.99, 990},
		{1000, 0.5, 500},
		{1100, 0.99, 1089},
		{20000, 0.999, 19980},
	} {
		got, err := quantile(seq(tc.n), tc.q)
		if err != nil || got != tc.want {
			t.Errorf("quantile(1..%d, %g) = %v, %v; want %v", tc.n, tc.q, got, err, tc.want)
		}
	}
}

// The p99 of n samples is backed by n-ceil(0.99n) worse samples; fewer
// than ten is refused.
func TestQuantileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		beyond int
		ok     bool
	}{
		{999, 9, false},
		{1000, 10, true},
		{1009, 10, true},
		{1101, 11, true},
		{10, 0, false},
	} {
		if b := beyond(tc.n, 0.99); b != tc.beyond {
			t.Errorf("beyond(%d, 0.99) = %d, want %d", tc.n, b, tc.beyond)
		}
		_, err := quantile(seq(tc.n), 0.99)
		if (err == nil) != tc.ok {
			t.Errorf("quantile of %d samples: err = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{100000, 0.999},
		{10000, 0.999},
		{9999, 0.99},
		{1000, 0.99},
		{200, 0.95},
		{100, 0.9},
		{20, 0.5},
		{19, 0},
	} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestTailMean(t *testing.T) {
	got, err := tailMean(seq(1000), 0.99)
	if err != nil || got != 995 { // mean of 990..1000
		t.Errorf("tailMean(1..1000, 0.99) = %v, %v; want 995", got, err)
	}
	// Quantised samples: the p99 is the same tick either way, the tail
	// mean is not.
	a := append(slices.Repeat([]float64{0}, 990), slices.Repeat([]float64{100}, 10)...)
	b := append(slices.Repeat([]float64{0}, 990), append(slices.Repeat([]float64{100}, 9), 300)...)
	qa, _ := quantile(a, 0.99)
	qb, _ := quantile(b, 0.99)
	ta, _ := tailMean(a, 0.99)
	tb, _ := tailMean(b, 0.99)
	if qa != qb || ta == tb {
		t.Errorf("p99 %v vs %v, tail mean %v vs %v", qa, qb, ta, tb)
	}
	if _, err := tailMean(seq(900), 0.99); err == nil {
		t.Error("tail of 10 samples out of 900 accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestDueRTT(t *testing.T) {
	due := time.Unix(100, 0)
	// Sent 3 ms late and echoed 5 ms after sending: the RTT counts the
	// lateness too.
	recv := due.Add(8 * time.Millisecond)
	if got := dueRTTms(due.UnixNano(), recv); math.Abs(got-8) > 1e-9 {
		t.Errorf("dueRTTms = %v, want 8", got)
	}
}

func TestFailFrac(t *testing.T) {
	if got := failFrac(0, 100); got != 0 {
		t.Errorf("failFrac(0,100) = %v", got)
	}
	if got := failFrac(25, 100); got != 0.25 {
		t.Errorf("failFrac(25,100) = %v", got)
	}
	if got := failFrac(0, 0); got != 0 {
		t.Errorf("failFrac(0,0) = %v", got)
	}
}

func TestObserverMissingAndDuplicates(t *testing.T) {
	ob := &observer{}
	ob.reserve(3, 1)
	at := time.Now()
	for seq := 1; seq <= 3; seq++ {
		u := updateFrom(1, seq)
		ob.saw(0, u, at) // echo to the sender
		if seq != 2 {
			ob.saw(1, u, at) // copy to the other client; seq 2's never arrives
		}
	}
	ob.saw(1, updateFrom(2, 1), at) // client 2's echo only
	if got := ob.missing([2]int64{3, 1}); got != 2 {
		t.Errorf("missing = %d, want 2 (1's seq 2 peer copy, 2's seq 1 peer copy)", got)
	}
	if got := failFrac(ob.missing([2]int64{3, 1}), 4); got != 0.5 {
		t.Errorf("fail_frac = %v, want 0.5", got)
	}
	ob.saw(0, updateFrom(1, 1), at)
	if ob.dups != 1 {
		t.Errorf("dups = %d, want 1", ob.dups)
	}
}

func TestServerSeconds(t *testing.T) {
	// One server for 10 ticks, then three for 5, at 0.1 s per tick.
	active := append(slices.Repeat([]int{1}, 10), slices.Repeat([]int{3}, 5)...)
	if got := serverSeconds(active, 0.1); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("serverSeconds = %v, want 2.5", got)
	}
}

// BENCHMARK.json must name exactly the metrics the program reports.
func TestBenchmarkFileNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, f.EndToEnd)
	check("per_layer", perLayer, f.PerLayer)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, program runs %d workloads", names, len(workloads))
	}
}
