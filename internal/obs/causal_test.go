package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/bricklab/brick/internal/flight"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// stallSnapshot builds a deterministic capture of a mismatched-tag stall:
// rank 5 posted a receive from rank 3 with tag 41, but rank 3 sent tag 40
// instead, so the receive is blamed on a send that was never posted and the
// send on a receive that was never posted. Rank 5's history passes through
// a healthy delivery from rank 0 (tag 17), which exercises the cross-ring
// seq jump.
func stallSnapshot() *flight.Snapshot {
	return &flight.Snapshot{
		Reason: "stall",
		Detail: "mpi: watchdog abort: stall: 2 pending ops in world of 8 (no progress for 250ms)",
		Depth:  1024,
		Pending: []flight.PendingRef{
			{Kind: "recv-posted", Src: 3, Dst: 5, Tag: 41},
			{Kind: "send-unmatched", Src: 3, Dst: 5, Tag: 40},
		},
		Ranks: []flight.RankLog{
			{Rank: 0, Total: 3, Events: []flight.Event{
				{Nanos: 1_000_000, Kind: flight.KindStep, Step: 2, Peer: -1, Tag: -1, Part: -1},
				{Nanos: 1_100_000, Kind: flight.KindSendPost, Step: 2, Peer: 5, Tag: 17, Part: -1, Seq: 3, Bytes: 256},
				{Nanos: 1_150_000, Kind: flight.KindPhase, Step: 2, Peer: -1, Tag: -1, Part: flight.PhaseInterior},
			}},
			{Rank: 3, Total: 4, Events: []flight.Event{
				{Nanos: 1_001_000, Kind: flight.KindStep, Step: 2, Peer: -1, Tag: -1, Part: -1},
				{Nanos: 1_005_000, Kind: flight.KindPhase, Step: 2, Peer: -1, Tag: -1, Part: flight.PhaseExchange},
				{Nanos: 1_010_000, Kind: flight.KindSendPost, Step: 2, Peer: 5, Tag: 40, Part: -1, Seq: 1, Bytes: 1024},
				{Nanos: 1_020_000, Kind: flight.KindWaitStart, Step: 2, Peer: 5, Tag: 40, Part: -1},
			}},
			{Rank: 5, Total: 6, Events: []flight.Event{
				{Nanos: 1_002_000, Kind: flight.KindStep, Step: 2, Peer: -1, Tag: -1, Part: -1},
				{Nanos: 1_003_000, Kind: flight.KindPhase, Step: 2, Peer: -1, Tag: -1, Part: flight.PhaseExchange},
				{Nanos: 1_004_000, Kind: flight.KindRecvPost, Step: 2, Peer: 0, Tag: 17, Part: -1, Bytes: 256},
				{Nanos: 1_120_000, Kind: flight.KindDeliver, Step: 2, Peer: 0, Tag: 17, Part: -1, Seq: 3, Bytes: 256},
				{Nanos: 1_130_000, Kind: flight.KindRecvPost, Step: 2, Peer: 3, Tag: 41, Part: -1, Bytes: 1024},
				{Nanos: 1_250_000, Kind: flight.KindWaitStart, Step: 2, Peer: 3, Tag: 41, Part: -1},
			}},
		},
	}
}

// TestCausalChains: the backward walk finds each pending op's terminal
// event, hops rings at seq-stamped deliveries, and blames the exact edge
// that never fired.
func TestCausalChains(t *testing.T) {
	chains := CausalChains(stallSnapshot())
	if len(chains) != 2 {
		t.Fatalf("%d chains, want 2 (one per pending op)", len(chains))
	}

	recv := chains[0]
	if recv.Pending.Kind != "recv-posted" || len(recv.Links) == 0 {
		t.Fatalf("chain 0 = %+v, want a non-empty recv-posted chain", recv)
	}
	last := recv.Links[len(recv.Links)-1]
	if last.Rank != 5 || last.Event.Kind != flight.KindRecvPost || last.Event.Tag != 41 {
		t.Fatalf("recv-posted terminal link = %+v, want rank 5's recv-post tag=41", last)
	}
	// Rank 5's history passes through the delivery of rank 0's seq 3, so
	// the walk must hop to rank 0's stamped send-post.
	hopped := false
	for _, l := range recv.Links {
		if l.Cross && l.Rank == 0 && l.Event.Kind == flight.KindSendPost && l.Event.Seq == 3 {
			hopped = true
		}
	}
	if !hopped {
		t.Errorf("recv-posted chain never hopped to rank 0's send-post: %+v", recv.Links)
	}
	if want := "rank 3 never posted a send tag=41 to rank 5"; recv.Blame != want {
		t.Errorf("blame = %q,\nwant    %q", recv.Blame, want)
	}

	send := chains[1]
	last = send.Links[len(send.Links)-1]
	if last.Rank != 3 || last.Event.Kind != flight.KindSendPost || last.Event.Tag != 40 {
		t.Fatalf("send-unmatched terminal link = %+v, want rank 3's send-post tag=40", last)
	}
	if want := "rank 5 never posted a matching receive for tag=40 from rank 3"; send.Blame != want {
		t.Errorf("blame = %q,\nwant    %q", send.Blame, want)
	}
	if strings.Contains(send.Blame, "tag=41") {
		t.Errorf("send-unmatched blame names the wrong tag: %q", send.Blame)
	}
}

// TestCausalChainCrossRankHop: a chain whose terminal rank's history passes
// through a seq-stamped delivery hops to the sender's ring.
func TestCausalChainCrossRankHop(t *testing.T) {
	s := &flight.Snapshot{
		Pending: []flight.PendingRef{{Kind: "recv-posted", Src: 0, Dst: 1, Tag: 99}},
		Ranks: []flight.RankLog{
			{Rank: 0, Events: []flight.Event{
				{Nanos: 100, Kind: flight.KindPhase, Peer: -1, Tag: -1, Part: flight.PhaseSurface},
				{Nanos: 200, Kind: flight.KindSendPost, Peer: 1, Tag: 17, Part: -1, Seq: 2, Bytes: 64},
			}},
			{Rank: 1, Events: []flight.Event{
				{Nanos: 300, Kind: flight.KindDeliver, Peer: 0, Tag: 17, Part: -1, Seq: 2, Bytes: 64},
				{Nanos: 400, Kind: flight.KindRecvPost, Peer: 0, Tag: 99, Part: -1, Bytes: 64},
			}},
		},
	}
	chains := CausalChains(s)
	if len(chains) != 1 {
		t.Fatalf("%d chains, want 1", len(chains))
	}
	links := chains[0].Links
	if len(links) != 4 {
		t.Fatalf("chain has %d links, want 4 (phase, send-post, deliver, recv-post): %+v", len(links), links)
	}
	if links[0].Rank != 0 || links[1].Rank != 0 || links[2].Rank != 1 || links[3].Rank != 1 {
		t.Fatalf("chain ranks = %+v, want [0 0 1 1]", links)
	}
	if !links[1].Cross {
		t.Errorf("send-post link not marked as a cross-ring hop: %+v", links[1])
	}
	if chains[0].Blame != "rank 0 never posted a send tag=99 to rank 1" {
		t.Errorf("blame = %q", chains[0].Blame)
	}
}

// TestWriteFlightReportGolden freezes the flightreport text format.
// Regenerate with: go test ./internal/obs/ -run Golden -update
func TestWriteFlightReportGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFlightReport(&buf, stallSnapshot(), 4); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	path := filepath.Join("testdata", "flightreport.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("flightreport format drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestFlightChainDerivation: AnalyzeWithFlight reads a rank's chain off its
// recorded phase/wait order when no trace chain exists.
func TestFlightChainDerivation(t *testing.T) {
	evs := []flight.Event{
		{Kind: flight.KindStep, Step: 1, Peer: -1, Tag: -1, Part: -1},
		{Kind: flight.KindPhase, Step: 1, Peer: -1, Tag: -1, Part: flight.PhaseExchange},
		{Kind: flight.KindPhase, Step: 1, Peer: -1, Tag: -1, Part: flight.PhaseInterior},
		{Kind: flight.KindWaitStart, Step: 1, Peer: 2, Tag: 7, Part: -1},
		{Kind: flight.KindWaitStart, Step: 1, Peer: 4, Tag: 7, Part: -1},
		{Kind: flight.KindPhase, Step: 1, Peer: -1, Tag: -1, Part: flight.PhaseSurface},
		{Kind: flight.KindStep, Step: 2, Peer: -1, Tag: -1, Part: -1},
		{Kind: flight.KindPhase, Step: 2, Peer: -1, Tag: -1, Part: flight.PhaseExchange},
	}
	got := flightChain(evs)
	want := []string{"exchange", "interior", "wait", "surface"}
	if len(got) != len(want) {
		t.Fatalf("flightChain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flightChain = %v, want %v", got, want)
		}
	}
}
