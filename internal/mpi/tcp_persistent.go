package mpi

import (
	"fmt"
	"sync"
	"time"

	"github.com/bricklab/brick/internal/fault"
)

// Persistent traffic over tcp. Endpoints register with the coordinator
// (tfPReg) keyed by (epoch, src, dst, tag, slot), where slot is the
// per-side ordinal of that (src, dst, tag) triple — the k-th SendInit of a
// triple pairs with the k-th RecvInit, the same FIFO pairing the chan
// backend's table gives. The coordinator pushes tfPaired to both sides once
// both registered.
//
// Cycles are eager like one-shot sends: Start puts the whole payload on the
// wire (tfPData) and the send side's Wait completes immediately. Receive
// cycles are keyed by the sender's cycle number carried in every frame, so
// a sender running ahead of the receiver's Start parks its frames in that
// future cycle's state rather than corrupting the current one — and frames
// for endpoints not yet registered park in the node's early queue until
// RecvInit drains them.

type tcpPersCycle struct {
	done     chan struct{}
	complete bool
	elems    int
	corrupt  *CorruptionError
	overflow string
}

// tcpPers is one persistent endpoint (send or receive side); it is the
// reqOp/persOp of its Request.
type tcpPers struct {
	n     *tcpNode
	c     *Comm
	key   persKey
	psend bool

	mu     sync.Mutex
	buf    []float64
	freed  bool
	paired bool
	active bool
	cycle  uint64

	// Receive side: per-cycle delivery state, keyed by sender cycle.
	cycles map[uint64]*tcpPersCycle
}

func (n *tcpNode) sendInit(c *Comm, dst, tag int, buf []float64) *Request {
	n.mu.Lock()
	sk := slotKey{psend: true, src: c.rank, dst: dst, tag: tag}
	slot := n.slotNext[sk]
	n.slotNext[sk]++
	key := persKey{src: c.rank, dst: dst, tag: tag, slot: slot}
	p := &tcpPers{n: n, c: c, key: key, psend: true, buf: buf}
	n.persSend[key] = p
	n.mu.Unlock()
	n.preg(p)
	return &Request{comm: c, op: p, persistent: true, psend: true, peer: dst, tag: tag}
}

func (n *tcpNode) recvInit(c *Comm, src, tag int, buf []float64) *Request {
	n.mu.Lock()
	sk := slotKey{psend: false, src: src, dst: c.rank, tag: tag}
	slot := n.slotNext[sk]
	n.slotNext[sk]++
	key := persKey{src: src, dst: c.rank, tag: tag, slot: slot}
	p := &tcpPers{n: n, c: c, key: key, psend: false, buf: buf, cycles: map[uint64]*tcpPersCycle{}}
	n.persRecv[key] = p
	// Frames that beat this registration parked in the early queue.
	pending := n.early[key]
	delete(n.early, key)
	for _, f := range pending {
		p.deliver(f.h, f.data, f.flips)
	}
	n.mu.Unlock()
	n.preg(p)
	return &Request{comm: c, op: p, persistent: true, peer: src, tag: tag}
}

// preg registers an endpoint with the coordinator.
func (n *tcpNode) preg(p *tcpPers) {
	if err := n.ctl.send(tfPReg, &ctlMsg{
		Rank: n.rank, Src: p.key.src, Dst: p.key.dst, Tag: p.key.tag, Slot: p.key.slot,
		Psend: p.psend, Epoch: n.epoch.Load(),
	}); err != nil {
		n.w.abort(n.rank, fmt.Errorf("tcp: rank %d lost control connection: %w", n.rank, err))
		panic(n.w.Aborted())
	}
}

// deliverPers routes an arrived persistent frame (n.mu held).
func (n *tcpNode) deliverPers(h *tcpHdr, data []float64, flips []fault.ByteFlip) {
	key := persKey{src: h.src, dst: h.dst, tag: h.tag, slot: h.slot}
	p := n.persRecv[key]
	if p == nil {
		n.early[key] = append(n.early[key], &earlyPersFrame{h: h, data: data, flips: flips})
		return
	}
	p.deliver(h, data, flips)
}

func (p *tcpPers) setPaired() {
	p.mu.Lock()
	p.paired = true
	p.mu.Unlock()
}

func (p *tcpPers) cycleState(cyc uint64) *tcpPersCycle {
	st := p.cycles[cyc]
	if st == nil {
		st = &tcpPersCycle{done: make(chan struct{})}
		p.cycles[cyc] = st
	}
	return st
}

func (st *tcpPersCycle) finish() {
	if !st.complete {
		st.complete = true
		close(st.done)
	}
}

// deliver lands one cycle frame in the receive buffer: copy, injected byte
// flips, then the receive-side CRC over what actually landed — the same
// corruption gauntlet the chan backend runs, raised on the waiting rank at
// Wait.
func (p *tcpPers) deliver(h *tcpHdr, data []float64, flips []fault.ByteFlip) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return
	}
	st := p.cycleState(h.cyc)
	if st.complete {
		return
	}
	nel := len(data)
	if nel > len(p.buf) {
		st.overflow = fmt.Sprintf("mpi: persistent message (src %d dst %d tag %d) of %d elements overflows receive buffer of %d",
			h.src, h.dst, h.tag, nel, len(p.buf))
		st.finish()
		return
	}
	copy(p.buf[:nel], data)
	applyFlips(p.buf[:nel], flips)
	if p.n.w.verifyCRC && crcFloats(data) != crcFloats(p.buf[:nel]) {
		st.corrupt = &CorruptionError{Src: h.src, Dst: p.c.rank, Tag: h.tag}
	}
	st.elems = nel
	p.c.fl.Deliver(int32(h.src), int32(h.tag), -1, int64(8*nel), h.fseq)
	st.finish()
}

// ---- persOp ----

func (p *tcpPers) elems(r *Request) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.buf)
}

func (p *tcpPers) start(r *Request, seq uint64, flips []fault.ByteFlip) {
	if p.psend {
		p.startSend(seq, flips)
		return
	}
	p.mu.Lock()
	if p.active {
		p.mu.Unlock()
		panic("mpi: persistent receive started twice without Wait")
	}
	p.active = true
	p.cycle++
	p.cycleState(p.cycle)
	p.mu.Unlock()
}

func (p *tcpPers) startSend(seq uint64, flips []fault.ByteFlip) {
	p.mu.Lock()
	if p.active {
		p.mu.Unlock()
		panic("mpi: persistent send started twice without Wait")
	}
	p.active = true
	p.cycle++
	n := p.n
	h := &tcpHdr{
		src: p.key.src, dst: p.key.dst, tag: p.key.tag, slot: p.key.slot,
		epoch: n.epoch.Load(), inc: n.inc, fseq: seq, cyc: p.cycle,
	}
	payload := encodeDataFrame(h, p.buf, flips)
	p.mu.Unlock()
	n.sendData(p.key.dst, tfPData, payload)
}

func (p *tcpPers) rebind(r *Request, buf []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active {
		if p.psend {
			panic("mpi: Rebind on an active persistent send")
		}
		panic("mpi: Rebind on an active persistent receive")
	}
	p.buf = buf
}

// free detaches the endpoint. Unlike chan, a freed unpaired endpoint stays
// registered at the coordinator until the next epoch — its frames are
// dropped here and it is excluded from pending accounting, which is the
// observable contract.
func (p *tcpPers) free(r *Request) {
	p.mu.Lock()
	p.freed = true
	p.buf = nil
	p.cycles = nil
	p.mu.Unlock()
}

// ---- reqOp ----

func (p *tcpPers) block(r *Request) {
	if p.psend {
		return // eager: the cycle went out at Start
	}
	st := p.currentCycle()
	select {
	case <-st.done:
	case <-p.c.world.abortCh:
		panic(p.c.world.Aborted())
	}
	p.raiseDelivered(st)
}

func (p *tcpPers) blockTimeout(r *Request, d time.Duration) error {
	if p.psend {
		return nil
	}
	st := p.currentCycle()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-st.done:
		p.raiseDelivered(st)
		return nil
	case <-p.c.world.abortCh:
		return p.c.world.Aborted()
	case <-t.C:
		return &TimeoutError{After: d, Op: p.opName(r)}
	}
}

func (p *tcpPers) currentCycle() *tcpPersCycle {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cycleState(p.cycle)
}

func (p *tcpPers) raiseDelivered(st *tcpPersCycle) {
	p.mu.Lock()
	overflow, corrupt := st.overflow, st.corrupt
	p.mu.Unlock()
	if overflow != "" {
		panic(overflow)
	}
	if corrupt != nil {
		p.c.world.abort(p.c.rank, corrupt)
		panic(p.c.world.Aborted())
	}
}

func (p *tcpPers) finish(r *Request) int {
	p.c.world.progressTick()
	p.mu.Lock()
	if p.psend {
		p.active = false
		p.mu.Unlock()
		return 0
	}
	st := p.cycles[p.cycle]
	nel := 0
	if st != nil {
		nel = st.elems
		delete(p.cycles, p.cycle)
	}
	p.active = false
	p.mu.Unlock()
	p.c.recvMsgs.Add(1)
	p.c.recvBytes.Add(int64(8 * nel))
	if p.c.m != nil {
		p.c.m.recvBytes.Observe(float64(8 * nel))
	}
	return nel
}

func (p *tcpPers) opName(r *Request) string {
	if p.psend {
		return fmt.Sprintf("wait psend dst=%d tag=%d", r.peer, r.tag)
	}
	return fmt.Sprintf("wait precv src=%d tag=%d", r.peer, r.tag)
}

// ---- introspection ----

func (p *tcpPers) pendingOps() []PendingOp {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return nil
	}
	src, dst, tag := p.key.src, p.key.dst, p.key.tag
	bytes := int64(8 * len(p.buf))
	if p.psend {
		if !p.paired {
			return []PendingOp{{Kind: "psend-unpaired", Src: src, Dst: dst, Tag: tag, Bytes: bytes, Persistent: true}}
		}
		if p.active {
			return []PendingOp{{Kind: "psend-active", Src: src, Dst: dst, Tag: tag, Bytes: bytes, Persistent: true}}
		}
		return nil
	}
	if !p.paired {
		return []PendingOp{{Kind: "precv-unpaired", Src: src, Dst: dst, Tag: tag, Bytes: bytes, Persistent: true}}
	}
	if p.active {
		if st := p.cycles[p.cycle]; st == nil || !st.complete {
			return []PendingOp{{Kind: "precv-active", Src: src, Dst: dst, Tag: tag, Bytes: bytes, Persistent: true}}
		}
	}
	return nil
}

func (p *tcpPers) pendingState() (unmatched, live int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return 0, 0
	}
	if !p.paired {
		unmatched = 1
	}
	return unmatched, 1
}
