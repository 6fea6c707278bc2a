package mpi

import (
	"strings"
	"sync"
	"testing"
)

// TestPersistentPairwise drives a two-rank persistent channel pair through
// many Start/Wait cycles and checks every delivery.
func TestPersistentPairwise(t *testing.T) {
	w := NewWorld(2)
	const n, steps = 64, 20
	w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		sbuf := make([]float64, n)
		rbuf := make([]float64, n)
		send := c.SendInit(peer, 7, sbuf)
		recv := c.RecvInit(peer, 7, rbuf)
		for s := 0; s < steps; s++ {
			for i := range sbuf {
				sbuf[i] = float64(1000*c.Rank() + 10*s + i%10)
			}
			recv.Start()
			send.Start()
			send.Wait()
			if got := recv.Wait(); got != n {
				t.Errorf("rank %d step %d: recv count %d, want %d", c.Rank(), s, got, n)
			}
			for i := range rbuf {
				want := float64(1000*peer + 10*s + i%10)
				if rbuf[i] != want {
					t.Fatalf("rank %d step %d elem %d: got %v want %v", c.Rank(), s, i, rbuf[i], want)
				}
			}
			c.Barrier()
		}
	})
}

// TestPersistentFIFOPairing registers two persistent plans with identical
// (src, dst, tag) triples — as double-buffered exchangers do — and checks
// they pair in registration order: plan 0's send lands in plan 0's receive.
func TestPersistentFIFOPairing(t *testing.T) {
	w := NewWorld(2)
	const n = 8
	w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		var sends, recvs [2]*Request
		var sbufs, rbufs [2][]float64
		for plan := 0; plan < 2; plan++ {
			sbufs[plan] = make([]float64, n)
			rbufs[plan] = make([]float64, n)
			for i := range sbufs[plan] {
				sbufs[plan][i] = float64(100*plan + i)
			}
			// Same tag for both plans: pairing must fall back to FIFO order.
			recvs[plan] = c.RecvInit(peer, 3, rbufs[plan])
			sends[plan] = c.SendInit(peer, 3, sbufs[plan])
		}
		for plan := 0; plan < 2; plan++ {
			recvs[plan].Start()
			sends[plan].Start()
			sends[plan].Wait()
			recvs[plan].Wait()
			for i, v := range rbufs[plan] {
				if want := float64(100*plan + i); v != want {
					t.Fatalf("rank %d plan %d elem %d: got %v want %v (cross-plan match?)", c.Rank(), plan, i, v, want)
				}
			}
		}
	})
}

// TestPersistentSelfPair checks a rank exchanging with itself, the shape the
// allocation tests rely on: the second Start on the pair performs the copy
// inline, so the cycle completes single-threaded.
func TestPersistentSelfPair(t *testing.T) {
	w := NewWorld(1)
	const n = 16
	w.Run(func(c *Comm) {
		sbuf := make([]float64, n)
		rbuf := make([]float64, n)
		send := c.SendInit(0, 5, sbuf)
		recv := c.RecvInit(0, 5, rbuf)
		for s := 0; s < 3; s++ {
			for i := range sbuf {
				sbuf[i] = float64(s*100 + i)
			}
			recv.Start()
			send.Start()
			send.Wait()
			recv.Wait()
			for i, v := range rbuf {
				if want := float64(s*100 + i); v != want {
					t.Fatalf("step %d elem %d: got %v want %v", s, i, v, want)
				}
			}
		}
	})
}

// TestPersistentZeroAllocSteps asserts the steady-state Start/Wait cycle
// performs zero heap allocations on a 2-rank exchange, on the chan and shmem
// backends. Rank 0 measures while rank 1 runs the same number of cycles in
// lockstep; the allocation counter is process-wide, so both ranks' halves of
// the protocol are inside the measurement. tcp is not covered: the same
// cycle allocates 19 objects there (a fresh frame per send and a decoded
// slice per receive), which the zero-copy work of ROADMAP item 5 removes.
func TestPersistentZeroAllocSteps(t *testing.T) {
	const runs = 100
	for _, name := range []string{"chan", "shmem"} {
		t.Run(name, func(t *testing.T) {
			w, err := NewWorldOn(name, 2)
			if err != nil {
				t.Fatalf("NewWorldOn(%q, 2): %v", name, err)
			}
			defer w.Close()
			measured := make(chan struct{})
			w.Run(func(c *Comm) {
				peer := 1 - c.Rank()
				send := c.SendInit(peer, 9, make([]float64, 512))
				recv := c.RecvInit(peer, 9, make([]float64, 512))
				reqs := []*Request{recv, send}
				cycle := func() {
					Startall(reqs)
					Waitall(reqs)
				}
				// Warm-up cycle outside the measurement.
				cycle()
				if c.Rank() == 1 {
					// AllocsPerRun calls its function once more than runs.
					for i := 0; i < runs+1; i++ {
						cycle()
					}
					<-measured
					return
				}
				allocs := testing.AllocsPerRun(runs, cycle)
				close(measured)
				if allocs != 0 {
					t.Errorf("persistent Start/Wait cycle allocates %v objects per step, want 0", allocs)
				}
			})
			if ae := w.Aborted(); ae != nil {
				t.Fatalf("world aborted: %v", ae)
			}
		})
	}
}

// TestPersistentTrafficCounters checks persistent traffic lands in the same
// counters as one-shot traffic: sends at Start, receives at Wait.
func TestPersistentTrafficCounters(t *testing.T) {
	w := NewWorld(2)
	const n, steps = 32, 4
	w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		send := c.SendInit(peer, 1, make([]float64, n))
		recv := c.RecvInit(peer, 1, make([]float64, n))
		c.TrafficSnapshot() // discard anything from setup
		for s := 0; s < steps; s++ {
			recv.Start()
			send.Start()
			send.Wait()
			recv.Wait()
		}
		tr := c.TrafficSnapshot()
		if tr.SentMsgs != steps || tr.RecvMsgs != steps {
			t.Errorf("rank %d: %d sent / %d recv msgs, want %d / %d", c.Rank(), tr.SentMsgs, tr.RecvMsgs, steps, steps)
		}
		if want := int64(steps * n * 8); tr.SentBytes != want || tr.RecvBytes != want {
			t.Errorf("rank %d: %d sent / %d recv bytes, want %d", c.Rank(), tr.SentBytes, tr.RecvBytes, want)
		}
	})
}

// TestPersistentDoubleStartPanics checks the alternation contract.
func TestPersistentDoubleStartPanics(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		recv := c.RecvInit(0, 2, make([]float64, 4))
		recv.Start()
		defer func() {
			p := recover()
			if p == nil {
				t.Error("second Start without Wait did not panic")
			} else if !strings.Contains(p.(string), "started twice") {
				t.Errorf("unexpected panic: %v", p)
			}
		}()
		recv.Start()
	})
}

// TestPersistentOverflowPanicsAtMatch checks buffer overflow is caught at
// plan-build time, when the endpoints match — not at the first transfer.
func TestPersistentOverflowPanicsAtMatch(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		c.SendInit(0, 4, make([]float64, 10))
		defer func() {
			p := recover()
			if p == nil {
				t.Error("oversized persistent send matched undersized receive without panic")
			} else if !strings.Contains(p.(string), "overflows") {
				t.Errorf("unexpected panic: %v", p)
			}
		}()
		c.RecvInit(0, 4, make([]float64, 5)) // too small: must panic here
	})
}

// TestPersistentFreeUnmatched checks Free removes a never-matched endpoint
// from the pending table so a rebuilt plan with the same (src, dst, tag)
// does not cross-match stale state.
func TestPersistentFreeUnmatched(t *testing.T) {
	w := NewWorld(2)
	const n = 8
	w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		stale := make([]float64, n)
		for i := range stale {
			stale[i] = -1
		}
		// First plan: register a send endpoint the peer never matches, then
		// tear it down before the peer builds its receive side.
		old := c.SendInit(peer, 6, stale)
		old.Free()
		c.Barrier()
		// Second plan with the same key must pair fresh endpoints.
		sbuf := make([]float64, n)
		rbuf := make([]float64, n)
		for i := range sbuf {
			sbuf[i] = float64(c.Rank()*10 + i)
		}
		recv := c.RecvInit(peer, 6, rbuf)
		send := c.SendInit(peer, 6, sbuf)
		recv.Start()
		send.Start()
		send.Wait()
		recv.Wait()
		for i, v := range rbuf {
			if want := float64(peer*10 + i); v != want {
				t.Fatalf("rank %d elem %d: got %v want %v (matched freed endpoint?)", c.Rank(), i, v, want)
			}
		}
	})
}

// TestPersistentConcurrentStartWait reuses one plan across many cycles with
// Start and Wait driven from different goroutines of the same rank — the
// comm/compute-overlap shape — and is meant to run under -race.
func TestPersistentConcurrentStartWait(t *testing.T) {
	w := NewWorld(4)
	const n, steps = 128, 50
	w.Run(func(c *Comm) {
		peer := c.Rank() ^ 1 // 0<->1, 2<->3
		sbuf := make([]float64, n)
		rbuf := make([]float64, n)
		send := c.SendInit(peer, 8, sbuf)
		recv := c.RecvInit(peer, 8, rbuf)
		for s := 0; s < steps; s++ {
			for i := range sbuf {
				sbuf[i] = float64(c.Rank()*1000 + s)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				recv.Start()
				send.Start()
				send.Wait()
				recv.Wait()
			}()
			wg.Wait()
			if rbuf[0] != float64(peer*1000+s) {
				t.Errorf("rank %d step %d: got %v want %v", c.Rank(), s, rbuf[0], float64(peer*1000+s))
			}
			c.Barrier()
		}
	})
}
