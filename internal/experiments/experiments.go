// Package experiments regenerates every table and figure of the paper's
// evaluation section from the reproduction's own substrates. Each experiment
// prints the same rows/series the paper reports; absolute values reflect the
// host and the deterministic machine model, but the shapes — who wins, by
// what factor, where crossovers fall — are the reproduction targets
// (EXPERIMENTS.md records paper-vs-measured for each).
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// Options scales the experiments.
type Options struct {
	// Quick shrinks sweeps for fast runs (CI, benchmarks).
	Quick bool
	// Steps overrides the timed timestep count (0 = default).
	Steps int
	// MaxRanks caps the strong-scaling rank count (0 = default).
	MaxRanks int
	// CSVDir, when set, additionally writes each experiment's rows as
	// <CSVDir>/<id>.csv.
	CSVDir string
}

// Spec is one reproducible experiment.
type Spec struct {
	ID    string // "fig01", "table1", ...
	Title string
	Run   func(o Options, w io.Writer) error
}

// All returns every experiment in paper order.
func All() []Spec {
	return []Spec{
		{"fig01", "Time breakdown per timestep, YASK vs pack-free (8 ranks)", Fig01},
		{"fig04", "Communication time: YASK vs Basic vs Layout (8 ranks)", Fig04},
		{"table1", "Messages vs dimension: neighbors / Layout / Basic (Eq. 1-3)", Table1},
		{"fig08", "(K1) 7-point stencil throughput on 8 ranks", Fig08},
		{"fig09", "(K1) Communication time per timestep", Fig09},
		{"fig10", "(K1) Compute time per timestep (layouts don't hurt compute)", Fig10},
		{"fig11", "(K2) Strong scaling throughput, 7pt and 125pt", Fig11},
		{"fig12", "(K2) Strong scaling comm/comp decomposition (7pt)", Fig12},
		{"fig13", "(V1) GPU 7-point stencil throughput on 8 ranks [modeled]", Fig13},
		{"fig14", "(V1) GPU communication time [modeled]", Fig14},
		{"fig15", "(V1) GPU compute time [modeled]", Fig15},
		{"table2", "(V1) Padding overhead and achieved bandwidth [modeled]", Table2},
		{"fig16", "(V2) GPU strong scaling [modeled]", Fig16},
		{"fig17", "(V2) GPU strong scaling comm/comp decomposition [modeled]", Fig17},
		{"fig18", "Page-size impact on MemMap communication time", Fig18},
		{"table3", "Qualitative cost comparison (paper Table 3)", Table3},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Spec, bool) {
	for _, s := range All() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// ---------------------------------------------------------------------------
// shared configuration

// cpuSweep returns the per-rank subdomain dimensions of the 8-rank CPU
// sweeps (paper: 512..16; laptop scale: 64..16).
func (o Options) cpuSweep() []int {
	if o.Quick {
		return []int{32, 16}
	}
	return []int{64, 48, 32, 24, 16}
}

func (o Options) steps() int {
	if o.Steps > 0 {
		return o.Steps
	}
	if o.Quick {
		return 8
	}
	return 16
}

// k1Config is the paper's K1 setup: 8 ranks in a periodic 2³ cube, 8³
// bricks, ghost width 8 with ghost-cell expansion.
func k1Config(im harness.Impl, dim int, st stencil.Stencil, o Options) harness.Config {
	return harness.Config{
		Impl:        im,
		Procs:       [3]int{2, 2, 2},
		Dom:         [3]int{dim, dim, dim},
		Ghost:       8,
		Shape:       core.Shape{8, 8, 8},
		Stencil:     st,
		Steps:       o.steps(),
		Warmup:      2,
		Machine:     netmodel.ThetaKNL(),
		ExpandGhost: true,
	}
}

// v1Config is the paper's V1 setup on the Summit profile.
func v1Config(im harness.Impl, dim int, st stencil.Stencil, o Options) harness.Config {
	c := k1Config(im, dim, st, o)
	c.Machine = netmodel.SummitV100()
	return c
}

// strongConfigs returns (procs-per-axis, subdomain-dim) pairs for strong
// scaling of a fixed global domain.
func (o Options) strongConfigs() [][2]int {
	// global = 128³: 8 ranks × 64³, 64 ranks × 32³, 512 ranks × 16³.
	cfgs := [][2]int{{2, 64}, {4, 32}, {8, 16}}
	max := o.MaxRanks
	if max == 0 {
		if o.Quick {
			max = 64
		} else {
			max = 512
		}
	}
	var out [][2]int
	for _, c := range cfgs {
		if c[0]*c[0]*c[0] <= max {
			out = append(out, c)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// formatting helpers

type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	for _, r := range t.rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	return nil
}

// emit writes the table as text to w and, when Options.CSVDir is set, as
// <id>.csv in that directory.
func (t *table) emit(o Options, id string, w io.Writer) error {
	if err := t.write(w); err != nil {
		return err
	}
	if o.CSVDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(o.CSVDir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write(t.header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func ms(sec float64) string { return fmt.Sprintf("%.4f", sec*1e3) }
func gst(v float64) string  { return fmt.Sprintf("%.4f", v) }
func pct(v float64) string  { return fmt.Sprintf("%.1f", v) }
func gbps(v float64) string { return fmt.Sprintf("%.2f", v/1e9) }
func mustRun(cfg harness.Config) (harness.Result, error) {
	return harness.Run(cfg)
}
