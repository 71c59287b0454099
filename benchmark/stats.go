package main

// stats.go: how samples become the reported numbers.

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"
)

// blocks is the number of consecutive slices a latency class is cut into.
// A gated number is the median over the blocks of the per-block
// statistic: a host stall that lands in one block moves that block's
// value and leaves the median alone, which a percentile over the whole
// run does not give on a shared two-core box.
const blocks = 9

// samples is one latency class: the timed calls in the order they ran.
type samples struct {
	d    []time.Duration
	skip int // warm-up calls still to drop
}

// newSamples sizes a class for total calls of which the first 5% are
// warm-up and untimed.
func newSamples(total int) *samples {
	skip := total / 20
	return &samples{d: make([]time.Duration, 0, total-skip), skip: skip}
}

// add records one call; it reports whether the call was past warm-up.
func (s *samples) add(d time.Duration) bool {
	if s.skip > 0 {
		s.skip--
		return false
	}
	s.d = append(s.d, d)
	return true
}

// dropWarmup discards the first 5% of a class whose size was not known
// up front (the concurrent reader, which runs until the writer is done).
func (s *samples) dropWarmup() {
	s.d = s.d[len(s.d)/20:]
}

// quantile returns the q-quantile (nearest rank) of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// pct is the q-quantile of a class over all its samples, in seconds.
func (s *samples) pct(q float64) float64 {
	v := seconds(s.d)
	sort.Float64s(v)
	return quantile(v, q)
}

// blockPct is the gated form: the median over the blocks of each
// block's q-quantile, in seconds.
func (s *samples) blockPct(q float64) float64 {
	n := len(s.d)
	if n < blocks {
		return s.pct(q)
	}
	per := make([]float64, blocks)
	for b := 0; b < blocks; b++ {
		v := seconds(s.d[b*n/blocks : (b+1)*n/blocks])
		sort.Float64s(v)
		per[b] = quantile(v, q)
	}
	return median(per)
}

// highestPercentile is the reporting rule of the choosing-metrics guide:
// the highest of p50, p90, p99, p99.9 that still has at least ten samples
// beyond it.
func highestPercentile(n int) float64 {
	best := 0.5
	for _, perMille := range []int{900, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best = float64(perMille) / 1000
		}
	}
	return best
}

// tail is the informational tail of a class: p99 where a thousand
// samples carry it, else the highest percentile the rule allows.
func (s *samples) tail() (value, q float64) {
	q = highestPercentile(len(s.d))
	if q > 0.99 {
		q = 0.99
	}
	return s.pct(q), q
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(string(fields[0]), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
