package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/mpi"
)

// TestMain lets the shmem and tcp smoke runs spawn this test binary as
// their rank workers.
func TestMain(m *testing.M) {
	harness.WorkerMain()
	os.Exit(m.Run())
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// checkMetrics asserts rep carries exactly the declared metrics, each
// finite and with its declared unit.
func checkMetrics(t *testing.T, rep *report, want map[string]string) {
	t.Helper()
	var got []string
	for name, m := range rep.Metrics {
		got = append(got, name)
		if unit, ok := want[name]; !ok {
			t.Errorf("undeclared metric %s", name)
		} else if m.Unit != unit {
			t.Errorf("%s: unit %q, declared %q", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", name, m.Value)
		}
	}
	if len(got) != len(want) {
		sort.Strings(got)
		t.Errorf("got %d metrics %v, declared %d", len(got), got, len(want))
	}
}

// small shrinks a workload to 16³ per rank and two exchange periods per
// segment, keeping its transport and code path, so a smoke run takes
// seconds.
func small(w workload) workload {
	w.dom = 16
	w.steps = 2*w.period() + 1
	return w
}

// TestEndToEndSmoke runs one round of every workload. Only the shmem heap
// operation may fail, once per round.
func TestEndToEndSmoke(t *testing.T) {
	want := declared(t, "end_to_end")
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			rep, err := runEndToEnd(w, 7, time.Nanosecond, testLog{t})
			if err != nil {
				t.Fatal(err)
			}
			wantAttempted, wantFailed := 2*len(impls), 0
			if w.heapOp {
				wantAttempted, wantFailed = wantAttempted+1, 1
			}
			if !rep.Correct || rep.Attempted != wantAttempted || rep.Failed != wantFailed {
				t.Errorf("correct=%v attempted=%d failed=%d, want true %d %d",
					rep.Correct, rep.Attempted, rep.Failed, wantAttempted, wantFailed)
			}
			checkMetrics(t, rep, want)
		})
	}
}

// TestTracedSmoke runs a minimal traced run of every workload and checks
// the trace file parses.
func TestTracedSmoke(t *testing.T) {
	want := declared(t, "per_layer")
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.json")
			rep, err := runTraced(w, 7, time.Millisecond, path, testLog{t})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			checkMetrics(t, rep, want)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var tr struct{ TraceEvents []traceEvent }
			if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) == 0 {
				t.Errorf("trace file: %d events, %v", len(tr.TraceEvents), err)
			}
		})
	}
}

// TestChecksumChecksRejectPerturbation: a checksum one ulp off is out-voted
// by the other two implementations, and a sum off by more than the rounding
// bound fails conservation.
func TestChecksumChecksRejectPerturbation(t *testing.T) {
	ok := []bool{true, true, true}
	sums := []float64{311.25, 311.25, math.Nextafter(311.25, 400)}
	if _, odd := agree(sums, ok); len(odd) != 1 || odd[0] != 2 {
		t.Errorf("agree flagged %v, want [2]", odd)
	}
	if _, odd := agree([]float64{1, 2, 3}, ok); len(odd) != 3 {
		t.Errorf("no majority flagged %v, want all three", odd)
	}
	const steps, points = 49, 524288.0
	if err := checkConserved(311.25+conservationBound(steps, points)/2, 311.25, steps, points); err != nil {
		t.Errorf("drift within the bound rejected: %v", err)
	}
	if err := checkConserved(311.25+2*conservationBound(steps, points), 311.25, steps, points); err == nil {
		t.Error("drift beyond the bound accepted")
	}
	if err := checkConserved(math.NaN(), 311.25, steps, points); err == nil {
		t.Error("NaN sum accepted")
	}
}

// TestFieldCheckRejectsFlippedGhost steps YASK and Layout for one round on
// two chan ranks; the serial-reference check passes, and fails once one
// ghost element of rank 0 is negated after the first exchange.
func TestFieldCheckRejectsFlippedGhost(t *testing.T) {
	w, _ := workloadByName("chan-d64")
	w.dom = 16
	const seed = 3
	ref := referenceSweep([3]int{ranks * w.dom, w.dom, w.dom}, roundSteps,
		func(x, y, z int) float64 { return seedValue(seed, x, y, z) })
	for _, i := range []int{0, 1} {
		for _, flip := range []bool{false, true} {
			wd := mpi.NewWorld(ranks)
			var errs [ranks]error
			err := runWorld(wd, func(c *mpi.Comm) {
				cart := mpi.NewCart(c, []int{1, 1, ranks}, []bool{true, true, true})
				org := [3]int{cart.MyCoords()[2] * w.dom, 0, 0}
				sub, err := newSubdomain(impls[i].impl, w.dom, cart)
				if err != nil {
					c.Abort(err)
				}
				defer sub.close()
				sub.load(func(x, y, z int) float64 { return seedValue(seed, org[0]+x, org[1]+y, org[2]+z) })
				for s := 0; s < roundSteps; s++ {
					if s%w.period() == 0 {
						sub.start()
						sub.complete()
						if flip && s == 0 && c.Rank() == 0 {
							negateGhost(sub)
						}
					}
					c.Barrier()
					sub.sweep(w.margin(s))
				}
				errs[c.Rank()] = checkField(ref, org, w.dom, sub.at)
			})
			if err != nil {
				t.Fatal(err)
			}
			if flip && errs[0] == nil {
				t.Errorf("%s: flipped ghost element passed the reference check", impls[i].name)
			}
			if !flip && (errs[0] != nil || errs[1] != nil) {
				t.Errorf("%s: clean round failed: %v / %v", impls[i].name, errs[0], errs[1])
			}
		}
	}
}

// negateGhost flips the sign of the ghost element just below the first
// domain element along i in the current buffer.
func negateGhost(sub subdomain) {
	switch s := sub.(type) {
	case *gridSub:
		g := s.gs[s.cur]
		g.Set(ghost-1, ghost, ghost, -g.At(ghost-1, ghost, ghost))
	case *brickSub:
		s.dec.SetElem(s.bs, s.cur, ghost-1, ghost, ghost, -s.dec.Elem(s.bs, s.cur, ghost-1, ghost, ghost))
	}
}

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(n=4) defaults.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 { // statistics.quantiles(range(1, 11), n=4)
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// testLog sends the benchmark's diagnostic lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}
