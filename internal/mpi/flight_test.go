package mpi

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bricklab/brick/internal/flight"
)

// ringEvents filters one kind out of a ring's retained events.
func ringEvents(g *flight.Ring, k flight.Kind) []flight.Event {
	var out []flight.Event
	for _, e := range g.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestFlightOneShotExchange: an Isend/Irecv pair records the full event
// chain — send-post with a fresh sequence stamp on the sender, recv-post
// then a delivery carrying that same stamp on the receiver — the linkage
// the cross-rank causal analysis is built on.
func TestFlightOneShotExchange(t *testing.T) {
	w := NewWorld(2)
	rec := flight.New(2, 64)
	w.SetFlight(rec)
	if w.Flight() != rec {
		t.Fatal("Flight() did not return the attached recorder")
	}
	w.Run(func(c *Comm) {
		buf := make([]float64, 4)
		for cycle := 0; cycle < 3; cycle++ {
			if c.Rank() == 0 {
				c.Isend(1, 9, buf).Wait()
			} else {
				c.Irecv(0, 9, buf).Wait()
			}
		}
	})
	sends := ringEvents(rec.Rank(0), flight.KindSendPost)
	if len(sends) != 3 {
		t.Fatalf("sender recorded %d send-posts, want 3", len(sends))
	}
	for i, e := range sends {
		if e.Seq != uint64(i+1) || e.Peer != 1 || e.Tag != 9 || e.Bytes != 32 {
			t.Fatalf("send-post %d = %+v, want seq=%d peer=1 tag=9 bytes=32", i, e, i+1)
		}
	}
	recvs := ringEvents(rec.Rank(1), flight.KindRecvPost)
	if len(recvs) != 3 || recvs[0].Peer != 0 || recvs[0].Tag != 9 {
		t.Fatalf("receiver recv-posts = %+v, want 3 from peer 0 tag 9", recvs)
	}
	delivers := ringEvents(rec.Rank(1), flight.KindDeliver)
	if len(delivers) != 3 {
		t.Fatalf("receiver recorded %d deliveries, want 3", len(delivers))
	}
	for i, e := range delivers {
		if e.Seq != uint64(i+1) || e.Peer != 0 || e.Tag != 9 {
			t.Fatalf("delivery %d = %+v, want sender's seq=%d", i, e, i+1)
		}
	}
	waits := ringEvents(rec.Rank(0), flight.KindWaitStart)
	dones := ringEvents(rec.Rank(0), flight.KindWaitDone)
	if len(waits) != 3 || len(dones) != 3 {
		t.Fatalf("sender wait events = %d starts / %d dones, want 3/3", len(waits), len(dones))
	}
}

// TestFlightPersistentConcurrent drives an 8-rank ring of persistent
// exchanges in both directions, each direction Started and Waited from its
// own goroutine — the overlapped-surface shape — under -race, then checks
// every ring's event accounting: one send-post per send cycle with the next
// seq of its stream, and one delivery per receive cycle carrying the seq
// its sender stamped on that cycle.
func TestFlightPersistentConcurrent(t *testing.T) {
	const (
		ranks  = 8
		cycles = 3
		n      = 16
	)
	w := NewWorld(ranks)
	rec := flight.New(ranks, 512)
	w.SetFlight(rec)
	w.Run(func(c *Comm) {
		right := (c.Rank() + 1) % ranks
		left := (c.Rank() + ranks - 1) % ranks
		var pairs [2][2]*Request // [direction]{send, recv}
		for d, peers := range [2][2]int{{right, left}, {left, right}} {
			pairs[d][0] = c.SendInit(peers[0], 41+d, make([]float64, n))
			pairs[d][1] = c.RecvInit(peers[1], 41+d, make([]float64, n))
		}
		for cy := 0; cy < cycles; cy++ {
			var wg sync.WaitGroup
			for d := range pairs {
				wg.Add(1)
				go func(reqs []*Request) {
					defer wg.Done()
					Startall(reqs)
					Waitall(reqs)
				}(pairs[d][:])
			}
			wg.Wait()
			c.Barrier()
		}
	})
	// Sequence stamps count per (peer, tag) stream: each of a rank's two
	// send streams and two receive streams must read 1..cycles in order,
	// and a delivery must come from the neighbour sending on its tag.
	type stream struct{ peer, tag int32 }
	checkStreams := func(r int, kind flight.Kind, from map[int32]int32) {
		evs := ringEvents(rec.Rank(r), kind)
		if len(evs) != 2*cycles {
			t.Fatalf("rank %d: %d %v events, want %d", r, len(evs), kind, 2*cycles)
		}
		next := map[stream]uint64{}
		for i, e := range evs {
			if from[e.Tag] != e.Peer {
				t.Fatalf("rank %d %v event %d = %+v, want peer %d on tag %d", r, kind, i, e, from[e.Tag], e.Tag)
			}
			k := stream{e.Peer, e.Tag}
			next[k]++
			if e.Seq != next[k] {
				t.Fatalf("rank %d %v event %d seq = %d, want %d", r, kind, i, e.Seq, next[k])
			}
		}
	}
	for r := 0; r < ranks; r++ {
		right, left := int32((r+1)%ranks), int32((r+ranks-1)%ranks)
		checkStreams(r, flight.KindSendPost, map[int32]int32{41: right, 42: left})
		checkStreams(r, flight.KindDeliver, map[int32]int32{41: left, 42: right})
	}
}

// TestFlightStallReportEmbedsTail: a live stall with the recorder attached
// embeds the stalled rank's ring tail into the watchdog's StallReport —
// compact event lines an operator sees right in the abort message.
func TestFlightStallReportEmbedsTail(t *testing.T) {
	w := NewWorld(2)
	rec := flight.New(2, 64)
	w.SetFlight(rec)
	w.SetWatchdog(50*time.Millisecond, nil)
	ae := runWorldExpectAbort(t, w, 10*time.Second, func(c *Comm) {
		if c.Rank() == 0 {
			c.Isend(1, 3, make([]float64, 2)).Wait()
		} else {
			c.Irecv(0, 4, make([]float64, 2)).Wait()
		}
	})
	rep, ok := ae.Value.(*StallReport)
	if !ok {
		t.Fatalf("abort value %T, want *StallReport", ae.Value)
	}
	if len(rep.FlightTail) == 0 {
		t.Fatalf("StallReport has no flight tail:\n%v", rep)
	}
	// The victim is the first sorted pending op's destination; both pending
	// ops here have Dst=1 or 2... the report is sorted by kind, so
	// recv-posted (0,1,4) sorts before send-unmatched; its Dst rank 1 posted
	// an Irecv, which must appear in the tail.
	if rep.FlightRank != rep.Pending[0].Dst {
		t.Errorf("FlightRank = %d, want first pending op's dst %d", rep.FlightRank, rep.Pending[0].Dst)
	}
	var sawRecv bool
	for _, line := range rep.FlightTail {
		if line == "recv-post peer=0 tag=4 bytes=16" {
			sawRecv = true
		}
	}
	if !sawRecv {
		t.Errorf("flight tail lacks the stalled recv-post:\n%v", rep.FlightTail)
	}
	if got := rep.String(); !strings.Contains(got, "flight tail (rank") {
		t.Errorf("String() lacks flight tail section:\n%s", got)
	}
}
