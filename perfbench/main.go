// Command perfbench is the repository's benchmark. It times the program's
// public entry points from outside, on three workloads that each load a
// different layer, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload chan-d64 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it runs the end-to-end measurement: harness.Run for YASK,
// Layout and MemMap, interleaved round-robin in short segments, each
// segment scaled by a calibration probe (see e2e.go and probe.go). With
// --trace 1 it drives the layers itself — mpi, grid, core and stencil — on
// in-process ranks, records a span around every call into a layer, writes
// the spans as a Chrome trace and reports per-layer figures (traced.go).
//
// The binary doubles as the rank worker of the shmem and tcp runs, which
// spawn it through harness.WorkerMain.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/mpi/proc"
)

func main() {
	harness.WorkerMain()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: correct speaks of the operations that did not
// fail; an operation that failed is counted in failed.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{Value: v, Unit: unit} }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traceOn := fs.Int("trace", 0, "1 runs the traced per-layer measurement, 0 the end-to-end one")
	out := fs.String("out", ".bench_build", "directory for the trace file and worker scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cleanup, err := scratchEnv(*out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer cleanup()

	bw := bufio.NewWriter(stdout)
	defer bw.Flush()
	fingerprint(bw)
	dur := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *traceOn == 1 {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		rep, err = runTraced(w, *seed, dur, path, bw)
	} else {
		rep, err = runEndToEnd(w, *seed, dur, bw)
	}
	if err != nil {
		bw.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(bw, "%s\n", line)
	return 0
}

// scratchEnv points the worker processes' temporary and log files into a
// fresh directory under out, so a run writes only inside its working tree,
// and returns the function that removes it. Logs of a failed worker run are
// not removed by the program itself.
func scratchEnv(out string) (func(), error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, fmt.Errorf("output dir: %w", err)
	}
	dir, err := os.MkdirTemp(out, "scratch-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	oldTmp, hadTmp := os.LookupEnv("TMPDIR")
	os.Setenv("TMPDIR", dir)
	os.Setenv(proc.EnvLogs, filepath.Join(dir, "worker-logs"))
	return func() {
		os.Unsetenv(proc.EnvLogs)
		if hadTmp {
			os.Setenv("TMPDIR", oldTmp)
		} else {
			os.Unsetenv("TMPDIR")
		}
		os.RemoveAll(dir)
	}, nil
}

// fingerprint prints the machine the figures were taken on, so a machine
// change shows next to the numbers instead of passing for a regression.
func fingerprint(w io.Writer) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(w, "# machine: cpu=%q nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
