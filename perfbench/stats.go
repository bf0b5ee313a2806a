package main

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks; xs need not be sorted and
// is not modified. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tail reports the highest percentile p ≤ want (in percent) that has at
// least minBeyond samples beyond it, stepping down through 99, 95, 90,
// 75 and 50, together with its value. ok is false when even the median
// lacks minBeyond samples beyond it.
func tail(xs []float64, want float64) (p, v float64, ok bool) {
	for _, p := range []int{99, 95, 90, 75, 50} {
		if float64(p) > want {
			continue
		}
		if len(xs)*(100-p) >= minBeyond*100 {
			return float64(p), quantile(xs, float64(p)/100), true
		}
	}
	return 0, 0, false
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metrics is a run's named figures. set rejects malformed names and
// units, non-finite values and duplicates, so a typo in a metric name
// fails the run instead of silently printing something the benchmark
// definition does not list.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("metric name %q is not valid", name))
	}
	if !unitRe.MatchString(unit) {
		panic(fmt.Sprintf("metric %s: unit %q is not valid", name, unit))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("metric %s: value %v is not finite", name, v))
	}
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("metric %s set twice", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}

// tally counts attempted and failed operations. An operation fails when
// it returns an error, a non-2xx status or a transport error; it is
// never dropped from the count.
type tally struct {
	attempted, failed int
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
	}
}

func (t tally) failFrac() float64 { return frac(float64(t.failed), float64(t.attempted)) }
