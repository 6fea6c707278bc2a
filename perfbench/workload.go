package main

import (
	"math"
	"sort"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// Load shape shared by every workload: two periodic ranks along i, one
// compute worker each (at most two busy threads), a 7-point stencil on 8³
// bricks with ghost width 8, persistent plans and default transport
// settings.
const (
	ghost   = 8
	brickSz = 8
	ranks   = 2
)

var procs = [3]int{ranks, 1, 1}

// workload is one input configuration of the benchmark.
type workload struct {
	name      string
	transport string
	dom       int  // subdomain edge per rank
	expand    bool // ghost-cell expansion: one exchange per ghost/radius steps
	// steps is the timed step count of one end-to-end segment: one step
	// plus a whole number of exchange periods, so the steps left after
	// subtracting a one-step run hold exchanges at the steady-state rate.
	steps int
	// heapOp adds, once per round, the one-shot Layout run that pushes more
	// eager payload through the shmem segment than its heap holds.
	heapOp bool
}

var workloads = []workload{
	{name: "chan-d64", transport: "chan", dom: 64, expand: true, steps: 49},
	{name: "shmem-d32", transport: "shmem", dom: 32, expand: true, steps: 193, heapOp: true},
	{name: "tcp-d16", transport: "tcp", dom: 16, expand: false, steps: 151},
	// A reference case that BENCHMARK.json leaves out: with an exchange
	// every step at 16³, cross-process wake-ups set the shmem step, and its
	// run-to-run spread is too wide to gate on.
	{name: "shmem-d16-every", transport: "shmem", dom: 16, expand: false, steps: 151},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// impls are the three implementations every workload compares, in the
// benchmark's metric naming.
var impls = []struct {
	name string
	impl harness.Impl
}{
	{"yask", harness.YASK},
	{"layout", harness.Layout},
	{"memmap", harness.MemMap},
}

// period is the number of steps one exchange covers.
func (w workload) period() int {
	if w.expand {
		return ghost / stencil.Star7().Radius
	}
	return 1
}

// margin is the ghost-expansion margin computed at phase-local step s.
func (w workload) margin(s int) int {
	p := w.period()
	if p == 1 {
		return 0
	}
	return ghost - (s%p+1)*stencil.Star7().Radius
}

// globalPoints is the number of stencil updates of one global step.
func (w workload) globalPoints() float64 {
	return float64(ranks) * float64(w.dom) * float64(w.dom) * float64(w.dom)
}

func (w workload) config(im harness.Impl, steps int) harness.Config {
	return harness.Config{
		Impl:        im,
		Procs:       procs,
		Dom:         [3]int{w.dom, w.dom, w.dom},
		Transport:   w.transport,
		Ghost:       ghost,
		Shape:       core.Shape{brickSz, brickSz, brickSz},
		Stencil:     stencil.Star7(),
		Steps:       steps,
		Machine:     netmodel.Local(),
		ExpandGhost: w.expand,
		Workers:     1,
	}
}

// median and iqr summarize a sample; quartiles follow Python's
// statistics.quantiles(n=4) exclusive method, as spread.py computes them.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 { // k-th cut of 4, exclusive method
		m := float64(n+1) * float64(k) / 4
		j := int(m)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// relIQR is the interquartile range as a share of the median.
func relIQR(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
