package main

import (
	"sync"
	"time"
)

// probeRef is the reference probe rate, in GStencil/s, that scaled
// figures are quoted at: a segment's rate is multiplied by
// probeRef ÷ (the probe rate measured around it). It is this benchmark's
// constant, close to the probe's peak on a 2-vCPU Xeon host, so scaled and
// raw figures read alike there; only ratios between runs matter.
const probeRef = 0.5

// probeN and probeReps fix the probe's work: probeReps sweeps of a probeN³
// box per rank, about 40 ms on the reference host.
const (
	probeN    = 32
	probeReps = 256
)

// prober is the calibration probe: a fixed, plain 7-point sweep kept in
// the benchmark's own code, never the program's kernel, run on one
// goroutine per rank. Its rate tracks how much CPU the host gives the two
// rank threads right now.
type prober struct {
	a, b [ranks][]float64
}

func newProber() *prober {
	p := &prober{}
	e := probeN + 2
	for r := range p.a {
		p.a[r] = make([]float64, e*e*e)
		p.b[r] = make([]float64, e*e*e)
		for i := range p.a[r] {
			p.a[r][i] = float64(i%97) / 97
		}
	}
	return p
}

// rate runs the probe once and returns its throughput in GStencil/s.
func (p *prober) rate() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			a, b := p.a[r], p.b[r]
			for k := 0; k < probeReps; k++ {
				probeSweep(b, a)
				a, b = b, a
			}
		}(r)
	}
	wg.Wait()
	pts := float64(ranks * probeReps * probeN * probeN * probeN)
	return pts / time.Since(t0).Seconds() / 1e9
}

// probeSweep applies a 7-point average to the interior of an (n+2)³ box.
func probeSweep(dst, src []float64) {
	const e = probeN + 2
	const sy, sz = e, e * e
	for z := 1; z <= probeN; z++ {
		for y := 1; y <= probeN; y++ {
			i := z*sz + y*sy + 1
			for x := 0; x < probeN; x, i = x+1, i+1 {
				dst[i] = 0.4*src[i] + 0.1*(src[i-1]+src[i+1]+src[i-sy]+src[i+sy]+src[i-sz]+src[i+sz])
			}
		}
	}
}
