package flight

import (
	"strings"
	"testing"

	"github.com/bricklab/brick/internal/trace"
)

// TestToTracePairsIntervals: wait start/done pairs become intervals; a
// start with no done survives as an "(unfinished)" marker — the smoking gun
// a stall export must keep visible.
func TestToTracePairsIntervals(t *testing.T) {
	s := &Snapshot{Ranks: []RankLog{{Rank: 2, Events: []Event{
		{Nanos: 1000, Kind: KindWaitStart, Peer: 3, Tag: 41, Part: -1},
		{Nanos: 5000, Kind: KindWaitDone, Peer: 3, Tag: 41, Part: -1},
		{Nanos: 6000, Kind: KindWaitStart, Peer: 4, Tag: 9, Part: -1},
		{Nanos: 9000, Kind: KindWaitDone, Peer: 4, Tag: 9, Part: -1},
		{Nanos: 9500, Kind: KindWaitStart, Peer: 5, Tag: 9, Part: -1},
		{Nanos: 9900, Kind: KindSendPost, Peer: 1, Tag: 17, Part: -1, Seq: 4, Bytes: 64},
	}}}}
	evs := ToTrace(s)
	byName := map[string]trace.Event{}
	for _, e := range evs {
		byName[e.Name] = e
		if e.Rank != 2 {
			t.Fatalf("event %q on rank %d, want 2", e.Name, e.Rank)
		}
	}
	w, ok := byName["wait peer=3 tag=41"]
	if !ok || w.Kind != trace.KindWait || w.Dur != 4000 {
		t.Fatalf("wait interval = %+v (present=%v)", w, ok)
	}
	w2, ok := byName["wait peer=4 tag=9"]
	if !ok || w2.Kind != trace.KindWait || w2.Dur != 3000 {
		t.Fatalf("second wait interval = %+v (present=%v)", w2, ok)
	}
	found := false
	for name := range byName {
		if strings.Contains(name, "wait peer=5") && strings.Contains(name, "unfinished") {
			found = true
		}
	}
	if !found {
		t.Fatalf("unfinished wait on peer 5 not exported; names = %v", names(evs))
	}
	if _, ok := byName["send->1 tag=17 seq=4"]; !ok {
		t.Fatalf("send marker missing; names = %v", names(evs))
	}
}

func names(evs []trace.Event) []string {
	var out []string
	for _, e := range evs {
		out = append(out, e.Name)
	}
	return out
}
