package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/layout"
)

// shmemSegmentBytes is the shmem transport's default segment size, the
// one in force when BRICK_SHMEM_BYTES is unset.
const shmemSegmentBytes = 256 << 20

// heapFault is the error text of the known shmem heap exhaustion: eager
// one-shot payloads are bump-allocated from the segment heap and never
// freed.
const heapFault = "shmem segment heap exhausted"

// segment is one implementation's timed slot in a round.
type segment struct {
	t1, tS float64 // wall seconds of the one-step and the w.steps-step run
	probe  float64 // mean probe rate around the slot, GStencil/s
}

// rate is the segment's raw throughput: global updates of the steps after
// the first, over their wall time; the one-step run's time carries the
// set-up and the first step.
func (s segment) rate(w workload) float64 {
	return w.globalPoints() * float64(w.steps-1) / (s.tS - s.t1) / 1e9
}

// setup is the segment's set-up time: the one-step run minus one step.
func (s segment) setup(w workload) float64 {
	return s.t1 - (s.tS-s.t1)/float64(w.steps-1)
}

// runEndToEnd times harness.Run for the three implementations, interleaved
// round-robin so host drift hits all of them alike, until dur is spent;
// every round is whole, so each run attempts the same operations in the
// same proportions.
func runEndToEnd(w workload, seed int64, dur time.Duration, log io.Writer) (*report, error) {
	// The heap operation is defined at the transport's default segment.
	os.Unsetenv("BRICK_SHMEM_BYTES")
	rep := newReport()
	pr := newProber()
	pr.rate() // fault in the probe's pages
	segs := make([][]segment, len(impls))
	var setups, probes []float64
	var ref1, refS uint64 // consensus checksums of the first checked round
	haveRef := false
	rot := int((seed%3 + 3) % 3)
	start := time.Now()
	var last time.Duration
	for round := 0; round == 0 || time.Since(start)+last <= dur; round++ {
		t0 := time.Now()
		before := pr.rate()
		probes = append(probes, before)
		var r1, rS [3]harness.Result
		var seg [3]segment
		var ok [3]bool
		for k := range impls {
			i := (rot + round + k) % len(impls)
			cfg := w.config(impls[i].impl, 1)
			a, ta, erra := timedRun(cfg)
			cfg.Steps = w.steps
			b, tb, errb := timedRun(cfg)
			after := pr.rate()
			probes = append(probes, after)
			rep.Attempted += 2
			for _, err := range []error{erra, errb} {
				if err != nil {
					rep.Failed++
					fmt.Fprintf(log, "# op failed: %s %s: %v\n", w.name, impls[i].name, err)
				}
			}
			if erra == nil && errb == nil {
				r1[i], rS[i], ok[i] = a, b, true
				seg[i] = segment{t1: ta, tS: tb, probe: (before + after) / 2}
			}
			before = after
		}
		// Checks: conservation per implementation, then bit equality across
		// the implementations and with the first round.
		var s1, sS [3]float64
		for i := range impls {
			s1[i], sS[i] = r1[i].Checksum, rS[i].Checksum
			if !ok[i] {
				continue
			}
			if err := checkConserved(sS[i], s1[i], w.steps, w.globalPoints()); err != nil {
				fail(rep, log, w, impls[i].name, err)
				ok[i] = false
			}
		}
		c1, odd1 := agree(s1[:], ok[:])
		cS, oddS := agree(sS[:], ok[:])
		for _, i := range append(odd1, oddS...) {
			if ok[i] {
				fail(rep, log, w, impls[i].name, fmt.Errorf("checksums %v/%v differ bitwise from the other implementations' %v/%v",
					s1[i], sS[i], math.Float64frombits(c1), math.Float64frombits(cS)))
				ok[i] = false
			}
		}
		if ok[0] || ok[1] || ok[2] {
			if !haveRef {
				ref1, refS, haveRef = c1, cS, true
			} else if c1 != ref1 || cS != refS {
				for i := range impls {
					if ok[i] {
						fail(rep, log, w, impls[i].name, fmt.Errorf("checksums %v/%v differ from the first round's %v/%v",
							s1[i], sS[i], math.Float64frombits(ref1), math.Float64frombits(refS)))
						ok[i] = false
					}
				}
			}
		}
		total := 0.0
		for i := range impls {
			if ok[i] {
				segs[i] = append(segs[i], seg[i])
				total += seg[i].setup(w)
			}
		}
		if ok[0] && ok[1] && ok[2] {
			setups = append(setups, total)
		}
		if w.heapOp {
			heapOp(w, rep, log, r1[1].Checksum, ok[1])
		}
		last = time.Since(t0)
	}

	for i, im := range impls {
		if len(segs[i]) == 0 {
			return nil, fmt.Errorf("no %s segment passed", im.name)
		}
		var raw, scaled []float64
		fmt.Fprintf(log, "# segs %s (raw GStencil/s / probe GStencil/s)", im.name)
		for _, s := range segs[i] {
			raw = append(raw, s.rate(w))
			scaled = append(scaled, s.rate(w)*probeRef/s.probe)
			fmt.Fprintf(log, " %.6g/%.4f", s.rate(w), s.probe)
		}
		fmt.Fprintln(log)
		rep.set("gstencils."+im.name, "GStencil/s", median(scaled))
		fmt.Fprintf(log, "# %-6s segments=%d raw=%.5f (IQR %.1f%%) scaled=%.5f (IQR %.1f%%) GStencil/s\n",
			im.name, len(raw), median(raw), 100*relIQR(raw), median(scaled), 100*relIQR(scaled))
	}
	if len(setups) == 0 {
		return nil, fmt.Errorf("no round passed for all three implementations")
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("peak_rss_mb", "MiB", peakRSSMiB())
	q1, q3 := quartiles(probes)
	fmt.Fprintf(log, "# probe raw GStencil/s: median=%.4f q1=%.4f q3=%.4f n=%d (reference %.2f)\n",
		median(probes), q1, q3, len(probes), probeRef)
	return rep, nil
}

func fail(rep *report, log io.Writer, w workload, impl string, err error) {
	rep.Failed++
	rep.Correct = false
	fmt.Fprintf(log, "# check failed: %s %s: %v\n", w.name, impl, err)
}

// timedRun times one harness.Run. The collection after it, outside the
// timed span, keeps one run's garbage from being collected inside the next
// run's timing and peak RSS at one run's live footprint.
func timedRun(cfg harness.Config) (harness.Result, float64, error) {
	t0 := time.Now()
	res, err := harness.Run(cfg)
	el := time.Since(t0).Seconds()
	runtime.GC()
	return res, el, err
}

// heapSteps is the step count of the heap operation: enough one-shot
// exchanges to push twice the default segment through its heap.
func heapSteps(w workload) int {
	dec, err := core.NewBrickDecomp(core.Shape{brickSz, brickSz, brickSz},
		[3]int{w.dom, w.dom, w.dom}, ghost, 2, layout.Surface3D())
	if err != nil {
		panic(err) // the workload table is fixed; a bad shape is a bug here
	}
	_, wire := dec.ExchangeBytes()
	return 2*shmemSegmentBytes/(ranks*wire) + 1
}

// heapOp runs Layout with one-shot messages, an exchange every step, for
// more eager payload than the shmem segment heap holds. It fails every
// time today (heapFault) and is counted as attempted and failed; it carries
// no metric. If it completes, its global sum is checked for conservation
// against the round's one-step Layout sum.
func heapOp(w workload, rep *report, log io.Writer, sumOne float64, haveSum bool) {
	cfg := w.config(harness.Layout, heapSteps(w))
	cfg.ExpandGhost = false
	cfg.DisablePersistent = true
	rep.Attempted++
	res, _, err := timedRun(cfg)
	switch {
	case err != nil && strings.Contains(err.Error(), heapFault):
		rep.Failed++
	case err != nil:
		rep.Failed++
		fmt.Fprintf(log, "# op failed: %s one-shot layout: %v\n", w.name, err)
	case haveSum:
		if cerr := checkConserved(res.Checksum, sumOne, cfg.Steps, w.globalPoints()); cerr != nil {
			rep.Failed++
			rep.Correct = false
			fmt.Fprintf(log, "# check failed: %s one-shot layout: %v\n", w.name, cerr)
		}
	}
}

// peakRSSMiB is the largest peak resident set of this process or of any
// worker process it waited for.
func peakRSSMiB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)     // cannot fail for RUSAGE_SELF
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids) // nor for RUSAGE_CHILDREN
	return float64(max(self.Maxrss, kids.Maxrss)) / 1024  // Linux reports KiB
}
