package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAllSpecsUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range All() {
		if s.ID == "" || s.Title == "" || s.Run == nil {
			t.Errorf("incomplete spec %+v", s)
		}
		if seen[s.ID] {
			t.Errorf("duplicate id %s", s.ID)
		}
		seen[s.ID] = true
		got, ok := ByID(s.ID)
		if !ok || got.ID != s.ID {
			t.Errorf("ByID(%s) failed", s.ID)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Error("unknown id resolved")
	}
	// The paper's evaluation: figures 1, 4, 8-18 minus the plots we fold
	// together, plus tables 1-3 = 16 experiments.
	if len(All()) != 16 {
		t.Errorf("expected 16 experiments, have %d", len(All()))
	}
}

// TestEveryExperimentRunsQuick executes each experiment at quick scale and
// sanity-checks the emitted table.
func TestEveryExperimentRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	opts := Options{Quick: true, Steps: 4, MaxRanks: 8}
	for _, s := range All() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := s.Run(opts, &buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			if len(lines) < 2 {
				t.Fatalf("experiment emitted no rows:\n%s", buf.String())
			}
			// Header + at least one data row, all rows non-empty.
			for i, l := range lines {
				if strings.TrimSpace(l) == "" {
					t.Errorf("blank line %d", i)
				}
			}
		})
	}
}

func TestTable1Values(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(Options{Quick: true}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"26", "42", "98", "242", "1042", "2882"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %s:\n%s", want, out)
		}
	}
}

func TestFig04ShowsMessageCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	if err := Fig04(Options{Quick: true, Steps: 4}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// At dim 32 all regions are non-empty: 26 / 98 / 42 messages.
	for _, want := range []string{"YASK    26", "Basic   98", "Layout  42"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig 4 missing %q:\n%s", want, out)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &table{header: []string{"a", "long_header"}}
	tb.add("xxxxx", "1")
	var buf bytes.Buffer
	if err := tb.write(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a      long_header\nxxxxx  1\n"
	if buf.String() != want {
		t.Errorf("table = %q, want %q", buf.String(), want)
	}
}

func TestOptionsScaling(t *testing.T) {
	q := Options{Quick: true}
	if len(q.cpuSweep()) >= len((Options{}).cpuSweep()) {
		t.Error("quick sweep not smaller")
	}
	if q.steps() >= (Options{}).steps() {
		t.Error("quick steps not smaller")
	}
	if (Options{Steps: 3}).steps() != 3 {
		t.Error("steps override ignored")
	}
	if n := len((Options{MaxRanks: 8}).strongConfigs()); n != 1 {
		t.Errorf("MaxRanks=8 should leave 1 config, got %d", n)
	}
}
