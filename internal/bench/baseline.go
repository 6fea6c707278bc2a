// Package bench defines the machine-readable benchmark baseline format
// (BENCH_<impl>_<dim>.json, schema "brick-bench/v1") and the regression
// gate that compares a fresh run against a committed baseline. Baselines
// capture the configuration, throughput, message plan, and per-phase
// latency percentiles of one run so CI can detect performance drift
// without re-deriving anything from raw metrics.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/metrics"
)

// Schema identifies the baseline file format.
const Schema = "brick-bench/v1"

// Phase holds one phase's per-step latency summary in seconds.
type Phase struct {
	MeanSec float64 `json:"mean_sec"`
	P50Sec  float64 `json:"p50_sec"`
	P90Sec  float64 `json:"p90_sec"`
	P99Sec  float64 `json:"p99_sec"`
	MaxSec  float64 `json:"max_sec"`
}

// Baseline is one run's benchmark record.
type Baseline struct {
	Schema  string `json:"schema"`
	Impl    string `json:"impl"`
	Dim     int    `json:"dim"` // cubic subdomain dimension per rank
	Ranks   [3]int `json:"ranks"`
	Stencil string `json:"stencil"`
	Steps   int    `json:"steps"`
	Workers int    `json:"workers"`

	GStencils       float64 `json:"gstencils"` // 1e9 stencil updates/s
	MsgsPerExchange int     `json:"msgs_per_exchange"`
	DataBytes       int64   `json:"data_bytes"` // per rank per exchange
	WireBytes       int64   `json:"wire_bytes"` // per rank per exchange

	// Phases maps phase name (calc/pack/call/wait) to its cross-rank
	// per-step latency summary, taken from the rank="all" histograms.
	Phases map[string]Phase `json:"phases"`

	// Plan is rank 0's compiled exchange plan (variant, message counts,
	// bytes, digest). Nil for GPU baselines, whose exchanges are modeled.
	// The digest is deterministic, so Compare treats any change as a
	// behaviour change.
	Plan *core.PlanSummary `json:"plan,omitempty"`
}

// FromResult builds a baseline from a harness result plus the metrics
// snapshot of the same run (phase percentiles come from the rank="all"
// aggregate series). snap may be nil; Phases is then empty.
func FromResult(res harness.Result, snap *metrics.Snapshot) Baseline {
	cfg := res.Config
	b := Baseline{
		Schema:          Schema,
		Impl:            cfg.Impl.String(),
		Dim:             cfg.Dom[0],
		Ranks:           cfg.Procs,
		Stencil:         cfg.Stencil.Name,
		Steps:           cfg.Steps,
		Workers:         cfg.Workers,
		GStencils:       res.GStencils,
		MsgsPerExchange: res.MsgsPerExchange,
		DataBytes:       res.DataBytes,
		WireBytes:       res.WireBytes,
		Phases:          map[string]Phase{},
		Plan:            res.Plan,
	}
	if snap == nil {
		return b
	}
	for _, h := range snap.FindHistograms(metrics.PhaseSeconds, map[string]string{
		"impl": b.Impl, "rank": "all",
	}) {
		b.Phases[h.Labels["phase"]] = Phase{
			MeanSec: h.Mean(),
			P50Sec:  h.P50,
			P90Sec:  h.P90,
			P99Sec:  h.P99,
			MaxSec:  h.Max,
		}
	}
	return b
}

// Filename returns the canonical baseline file name,
// BENCH_<impl>_<dim>.json, with impl normalized to file-safe characters
// (e.g. "Layout-OL" → "LayoutOL", "MPI_Types" → "MPITypes").
func (b Baseline) Filename() string {
	impl := strings.NewReplacer("-", "", "_", "").Replace(b.Impl)
	return fmt.Sprintf("BENCH_%s_%d.json", impl, b.Dim)
}

// Write stores the baseline under dir using its canonical filename and
// returns the full path.
func (b Baseline) Write(dir string) (string, error) {
	if b.Schema == "" {
		b.Schema = Schema
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, b.Filename())
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Load reads and validates one baseline file.
func Load(path string) (Baseline, error) {
	var b Baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if b.Schema != Schema {
		return b, fmt.Errorf("bench: %s: schema %q, want %q", path, b.Schema, Schema)
	}
	return b, nil
}

// Compare gates cur against base: it returns an error when throughput
// dropped by more than maxDrop (a fraction, e.g. 0.10 for 10%), or when
// the two baselines describe different configurations and are therefore
// not comparable. Message-plan changes (msgs/bytes per exchange) also
// fail: they are deterministic, so any difference is a behaviour change,
// not noise.
func Compare(base, cur Baseline, maxDrop float64) error {
	if base.Impl != cur.Impl || base.Dim != cur.Dim || base.Ranks != cur.Ranks ||
		base.Stencil != cur.Stencil {
		return fmt.Errorf("bench: baselines not comparable: %s/%d/%v/%s vs %s/%d/%v/%s",
			base.Impl, base.Dim, base.Ranks, base.Stencil,
			cur.Impl, cur.Dim, cur.Ranks, cur.Stencil)
	}
	if base.MsgsPerExchange != cur.MsgsPerExchange {
		return fmt.Errorf("bench: %s: msgs/exchange changed %d → %d",
			base.Impl, base.MsgsPerExchange, cur.MsgsPerExchange)
	}
	if base.WireBytes != cur.WireBytes {
		return fmt.Errorf("bench: %s: wire bytes/exchange changed %d → %d",
			base.Impl, base.WireBytes, cur.WireBytes)
	}
	// A digest change means different peers, tags, or payloads — a plan
	// behaviour change even when the totals happen to agree. Baselines
	// recorded before plans were captured (nil) are not gated.
	if base.Plan != nil && cur.Plan != nil && base.Plan.Digest != cur.Plan.Digest {
		return fmt.Errorf("bench: %s: exchange plan digest changed %s → %s",
			base.Impl, base.Plan.Digest, cur.Plan.Digest)
	}
	if base.GStencils > 0 {
		floor := base.GStencils * (1 - maxDrop)
		if cur.GStencils < floor {
			return fmt.Errorf("bench: %s: GStencil/s regressed %.4f → %.4f (floor %.4f at -%.0f%%)",
				base.Impl, base.GStencils, cur.GStencils, floor, maxDrop*100)
		}
	}
	return nil
}
