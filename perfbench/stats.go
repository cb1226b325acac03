package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// rankIndex is the nearest-rank index of quantile q in n sorted samples.
// The epsilon keeps float error in q*n (0.99*1100 is not exactly 1089)
// from moving the rank up by one.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// beyond counts the samples strictly after the q-quantile's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// quantile returns the nearest-rank q-quantile of sorted samples. It fails
// when fewer than minBeyond samples lie beyond it, so every tail figure the
// benchmark prints is backed by at least that many worse samples.
func quantile(sorted []float64, q float64) (float64, error) {
	if b := beyond(len(sorted), q); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(sorted), b, minBeyond)
	}
	return sorted[rankIndex(len(sorted), q)], nil
}

// tailMean is the mean of the samples at or above the q-quantile of
// sorted samples — the slowest 1-q share. Unlike the quantile itself it
// does not read the same on every run when samples are quantised (the
// simulator's latencies are whole ticks). Like quantile, it fails when
// fewer than minBeyond samples lie beyond the q-quantile.
func tailMean(sorted []float64, q float64) (float64, error) {
	if b := beyond(len(sorted), q); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(sorted), b, minBeyond)
	}
	return mean(sorted[rankIndex(len(sorted), q):]), nil
}

// tailPercentiles are the candidates, highest first, for "the highest
// percentile with at least minBeyond samples beyond it".
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// highestTail returns the highest candidate percentile that n samples
// support, or 0 when even the median does not.
func highestTail(n int) float64 {
	for _, q := range tailPercentiles {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

// median of unsorted values (the mean of the middle two for even counts).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sumf(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return sumf(vs) / float64(len(vs))
}

// failFrac is the share of offered updates that failed; zero offered is
// zero failed.
func failFrac(failed, attempted int64) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// dueRTTms is an open-loop round trip in milliseconds, timed from when the
// update was due to be sent (its SentUnix stamp), not from when the
// generator got round to sending it: a stall then shows in every update
// queued behind it.
func dueRTTms(dueUnixNano int64, recv time.Time) float64 {
	return float64(recv.UnixNano()-dueUnixNano) / 1e6
}

// serverSeconds integrates the active-server count over a run stepped at dt
// seconds per tick: active[i] servers were live for tick i.
func serverSeconds(active []int, dt float64) float64 {
	var sum int
	for _, a := range active {
		sum += a
	}
	return float64(sum) * dt
}

// ratio returns num/den, or 0 when den is zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
