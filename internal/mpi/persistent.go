package mpi

import (
	"fmt"
	"sync"
	"time"

	"github.com/bricklab/brick/internal/fault"
	"github.com/bricklab/brick/internal/trace"
)

// Persistent requests (SendInit/RecvInit + Start/Wait) implement the
// MPI_Send_init/MPI_Recv_init pattern: the two endpoints of a repeating
// transfer are matched ONCE, at plan-build time, into a pre-wired
// rank-to-rank channel. Every subsequent Start/Wait cycle reuses that
// channel: no inbox tag matching, no envelope or request allocation, no
// receive-buffer allocation — the per-step path performs exactly one copy
// (sender buffer → receiver buffer) plus channel token handoffs.
//
// Matching rules: a SendInit on rank S with (dst=R, tag=t) pairs with the
// RecvInit on rank R with (src=S, tag=t). When several persistent endpoints
// share the same (src, dst, tag) triple — e.g. double-buffered exchangers
// that build one plan per buffer — they pair in registration order, so all
// ranks must build their plans in the same program order (the same rule MPI
// imposes on communicator construction). Wildcards (AnySource/AnyTag) are
// not supported for persistent endpoints.
//
// Persistent and one-shot traffic never cross-match: a persistent send is
// invisible to Irecv and vice versa, even with equal tags.
//
// This file holds the transport-agnostic entry points (Comm.SendInit,
// Request.Start/Wait/Rebind/Free) and the chan backend's pre-paired channel
// implementation (pchan), which is the protocol op behind every persistent
// request on that backend.

// endpointKey identifies one directed persistent channel.
type endpointKey struct {
	src, dst, tag int
}

// pchan is the pre-wired channel shared by a matched SendInit/RecvInit
// pair. One step of the protocol: both sides Start; whichever side starts
// second performs the copy (mirroring the one-shot deliver) and releases
// one completion token per side. Each side's Wait consumes its own token
// and returns the request to the inactive state. Because Start panics on
// an active request (Wait must intervene, as in MPI), each side's token
// channel holds at most one token, so the cap-1 channels never block and
// the steady-state path allocates nothing.
type pchan struct {
	key endpointKey
	reg *persistReg // owning registry, for Free

	mu         sync.Mutex
	sendBuf    []float64
	recvBuf    []float64
	sendActive bool             // send Started, not yet Waited
	recvActive bool             // recv Started, not yet Waited
	sendFired  bool             // send Started in the current cycle, cleared at delivery
	recvFired  bool             // recv Started in the current cycle, cleared at delivery
	sendStart  time.Time        // set at send Start when sender metrics enabled
	sendDone   chan struct{}    // cap 1: delivery token for the send side
	recvDone   chan struct{}    // cap 1: delivery token for the recv side
	sendComm   *Comm            // nil until the send side registered
	recvComm   *Comm            // nil until the recv side registered
	sendFreed  bool             // send side called Free
	recvFreed  bool             // recv side called Free
	flips      []fault.ByteFlip // injected corruption for the current cycle
	seq        uint64           // sender's flight sequence stamp for the current cycle
}

func newPchan(key endpointKey, reg *persistReg) *pchan {
	return &pchan{key: key, reg: reg,
		sendDone: make(chan struct{}, 1), recvDone: make(chan struct{}, 1)}
}

// persistReg is the chan backend's table of persistent endpoints: the
// pending maps hold not-yet-matched endpoints, and all holds every live
// pchan (matched or not) until both sides Free it — the watchdog scans it
// for in-flight transfers and leak tests count it. It is touched only at
// plan build/teardown time.
type persistReg struct {
	mu    sync.Mutex
	sends map[endpointKey][]*pchan
	recvs map[endpointKey][]*pchan
	all   []*pchan
}

func (pr *persistReg) init() {
	pr.sends = map[endpointKey][]*pchan{}
	pr.recvs = map[endpointKey][]*pchan{}
}

// dropLocked removes pc from the live list; pr.mu held.
func (pr *persistReg) dropLocked(pc *pchan) {
	for i, c := range pr.all {
		if c == pc {
			pr.all = append(pr.all[:i], pr.all[i+1:]...)
			return
		}
	}
}

// pop removes and returns the oldest pending endpoint for key, or nil.
func pop(m map[endpointKey][]*pchan, key endpointKey) *pchan {
	list := m[key]
	if len(list) == 0 {
		return nil
	}
	pc := list[0]
	if len(list) == 1 {
		delete(m, key)
	} else {
		m[key] = list[1:]
	}
	return pc
}

// remove deletes pc from a pending list (teardown of an unmatched endpoint).
func remove(m map[endpointKey][]*pchan, key endpointKey, pc *pchan) {
	list := m[key]
	for i, c := range list {
		if c == pc {
			list = append(list[:i], list[i+1:]...)
			if len(list) == 0 {
				delete(m, key)
			} else {
				m[key] = list
			}
			return
		}
	}
}

// SendInit creates a persistent send endpoint: buf will be transmitted to
// rank dst with the given tag on every Start/Wait cycle. The endpoint is
// matched against the destination's RecvInit once, at creation time (or
// when the peer registers); per-step Start/Wait then bypass the matching
// engine entirely. The returned request is inactive until Start.
func (c *Comm) SendInit(dst, tag int, buf []float64) *Request {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: SendInit to invalid rank %d (size %d)", dst, c.world.size))
	}
	if tag < 0 {
		panic("mpi: send tag must be non-negative")
	}
	r := c.world.tr.sendInit(c, dst, tag, buf)
	if c.world.rec != nil {
		r.label = fmt.Sprintf("psend->%d tag=%d", dst, tag)
	}
	return r
}

// RecvInit creates a persistent receive endpoint: every Start/Wait cycle
// fills buf with the matched sender's data. src must be a concrete rank
// (no AnySource) and tag a concrete tag (no AnyTag).
func (c *Comm) RecvInit(src, tag int, buf []float64) *Request {
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mpi: RecvInit from invalid rank %d (size %d)", src, c.world.size))
	}
	if tag < 0 {
		panic("mpi: RecvInit tag must be a concrete non-negative tag")
	}
	r := c.world.tr.recvInit(c, src, tag, buf)
	if c.world.rec != nil {
		r.label = fmt.Sprintf("precv<-%d tag=%d", src, tag)
	}
	return r
}

func (t *chanTransport) sendInit(c *Comm, dst, tag int, buf []float64) *Request {
	key := endpointKey{src: c.rank, dst: dst, tag: tag}
	pr := &t.pers
	pr.mu.Lock()
	pc := pop(pr.recvs, key)
	if pc == nil {
		pc = newPchan(key, pr)
		pr.sends[key] = append(pr.sends[key], pc)
		pr.all = append(pr.all, pc)
	}
	pr.mu.Unlock()
	pc.mu.Lock()
	pc.sendBuf = buf
	pc.sendComm = c
	pc.checkSizesLocked()
	pc.mu.Unlock()
	return &Request{comm: c, op: pc, persistent: true, psend: true, peer: dst, tag: tag}
}

func (t *chanTransport) recvInit(c *Comm, src, tag int, buf []float64) *Request {
	key := endpointKey{src: src, dst: c.rank, tag: tag}
	pr := &t.pers
	pr.mu.Lock()
	pc := pop(pr.sends, key)
	if pc == nil {
		pc = newPchan(key, pr)
		pr.recvs[key] = append(pr.recvs[key], pc)
		pr.all = append(pr.all, pc)
	}
	pr.mu.Unlock()
	pc.mu.Lock()
	pc.recvBuf = buf
	pc.recvComm = c
	pc.checkSizesLocked()
	pc.mu.Unlock()
	return &Request{comm: c, op: pc, persistent: true, psend: false, peer: src, tag: tag}
}

// checkSizesLocked validates buffer compatibility as soon as both sides are
// known — plan-build time, not first-transfer time.
func (pc *pchan) checkSizesLocked() {
	if pc.sendBuf != nil && pc.recvBuf != nil && len(pc.sendBuf) > len(pc.recvBuf) {
		panic(fmt.Sprintf("mpi: persistent message (src %d dst %d tag %d) of %d elements overflows receive buffer of %d",
			pc.key.src, pc.key.dst, pc.key.tag, len(pc.sendBuf), len(pc.recvBuf)))
	}
}

// deliverLocked runs on whichever side started second in a cycle: copy,
// clear the cycle's fired flags, and release one completion token per
// side. Called with pc.mu held. The token channels are cap 1 and provably
// never full here: a side's previous token must have been consumed by its
// Wait before its Start (enforced by the active-flag panic) could arm this
// delivery. The returned error is non-nil only when receive-side CRC
// verification is on and the (possibly corrupted) receive buffer differs
// from the send buffer; the caller must release pc.mu before acting on it,
// since aborting with the lock held would hang peers blocked on pc.mu.
func (pc *pchan) deliverLocked() error {
	if pc.sendBuf == nil || pc.recvBuf == nil {
		panic(fmt.Sprintf("mpi: persistent channel (src %d dst %d tag %d) started before both endpoints initialized",
			pc.key.src, pc.key.dst, pc.key.tag))
	}
	copy(pc.recvBuf, pc.sendBuf)
	if pc.flips != nil {
		applyFlips(pc.recvBuf[:len(pc.sendBuf)], pc.flips)
		pc.flips = nil
	}
	var err error
	if pc.sendComm.world.verifyCRC && crcFloats(pc.sendBuf) != crcFloats(pc.recvBuf[:len(pc.sendBuf)]) {
		err = &CorruptionError{Src: pc.key.src, Dst: pc.key.dst, Tag: pc.key.tag}
	}
	if m := pc.sendComm.m; m != nil && !pc.sendStart.IsZero() {
		m.sendSeconds.Observe(time.Since(pc.sendStart).Seconds())
	}
	pc.recvComm.fl.Deliver(int32(pc.key.src), int32(pc.key.tag), -1, int64(8*len(pc.sendBuf)), pc.seq)
	pc.sendFired, pc.recvFired = false, false
	pc.sendDone <- struct{}{}
	pc.recvDone <- struct{}{}
	return err
}

// Start activates a persistent request for one transfer. The request must
// be inactive: starting again before Wait panics (as in MPI). Data becomes
// visible in the receive buffer only after the receiver's Wait returns.
func (r *Request) Start() {
	op, ok := r.op.(persOp)
	if !ok {
		panic("mpi: Start on a non-persistent request")
	}
	c := r.comm
	if r.psend {
		n := op.elems(r)
		if f := c.world.fault; f != nil {
			if d := f.SendDelay(c.rank); d > 0 {
				time.Sleep(d)
			}
			f.ProcessFault(c.rank)
		}
		c.sentMsgs.Add(1)
		c.sentBytes.Add(int64(8 * n))
		if m := c.m; m != nil {
			m.sendBytes.Observe(float64(8 * n))
		}
		if rec := c.world.rec; rec != nil {
			rec.Begin(c.rank, trace.KindSend, r.label, r.peer, int64(8*n))()
		}
		seq := c.fl.Send(int32(r.peer), int32(r.tag), -1, int64(8*n))
		var flips []fault.ByteFlip
		if f := c.world.fault; f != nil {
			flips = f.CorruptSend(c.rank, n)
		}
		op.start(r, seq, flips)
		return
	}
	n := op.elems(r)
	if rec := c.world.rec; rec != nil {
		rec.Begin(c.rank, trace.KindRecv, r.label, r.peer, int64(8*n))()
	}
	c.fl.RecvPost(int32(r.peer), int32(r.tag), int64(8*n))
	op.start(r, 0, nil)
}

// Startall starts every request in the slice (MPI_Startall). Nil entries
// are skipped.
func Startall(reqs []*Request) {
	for _, r := range reqs {
		if r != nil {
			r.Start()
		}
	}
}

// Rebind swaps the buffer behind an inactive persistent request, keeping
// the matched channel and its (src, dst, tag) identity. The peer is
// unaffected — the wire format is the flat []float64 payload either way —
// which is what lets a degraded exchanger substitute a copy-window buffer
// for a mapped view mid-run without renegotiating the plan. Panics on a
// non-persistent request, on an active (Started, un-Waited) request, or if
// the new buffer breaks send/recv size compatibility.
func (r *Request) Rebind(buf []float64) {
	op, ok := r.op.(persOp)
	if !ok {
		panic("mpi: Rebind on a non-persistent request")
	}
	op.rebind(r, buf)
}

// Free tears down a persistent endpoint. An endpoint whose peer never
// registered is removed from the pending table — so a later plan may reuse
// its (src, dst, tag) triple without cross-matching stale state — and from
// the live list immediately. A matched endpoint stays live until the OTHER
// side frees too (the peer still holds the shared channel), at which point
// the channel leaves the live list; this is what keeps
// World.PersistentPending honest for leak tests.
//
// Free retracts any Start of this side that has not yet been delivered and
// drops the buffer reference. In a fault-free run that is a no-op (Wait
// precedes teardown, and Wait only returns after delivery), but a rank
// unwinding from an abort Frees endpoints whose cycle never completed —
// and may munmap the backing arena (MemMap storage) immediately after.
// Without the retraction a surviving peer that Starts next would observe
// the stale fired flag and copy from/into the unmapped pages, a fatal
// SIGSEGV no recover can catch. After the retraction the peer sees no
// pending delivery, blocks in Wait, and leaves through the abort channel.
// The channel lock serializes Free against a delivery already copying, so
// the unmap cannot land mid-copy either. Calling Free twice on the same
// request is a no-op.
func (r *Request) Free() {
	if op, ok := r.op.(persOp); ok {
		op.free(r)
	}
}

// pchan as the chan backend's persOp.

func (pc *pchan) elems(r *Request) int {
	if r.psend {
		return len(pc.sendBuf)
	}
	return len(pc.recvBuf)
}

func (pc *pchan) start(r *Request, seq uint64, flips []fault.ByteFlip) {
	c := r.comm
	if r.psend {
		pc.mu.Lock()
		if pc.sendActive {
			pc.mu.Unlock()
			panic("mpi: persistent send started twice without Wait")
		}
		pc.sendActive, pc.sendFired = true, true
		pc.seq = seq
		pc.flips = flips
		if c.m != nil {
			pc.sendStart = time.Now()
		}
		var err error
		if pc.recvFired {
			err = pc.deliverLocked()
		}
		pc.mu.Unlock()
		if err != nil {
			c.world.abort(c.rank, err)
			panic(c.world.Aborted())
		}
		return
	}
	pc.mu.Lock()
	if pc.recvActive {
		pc.mu.Unlock()
		panic("mpi: persistent receive started twice without Wait")
	}
	pc.recvActive, pc.recvFired = true, true
	var err error
	if pc.sendFired {
		err = pc.deliverLocked()
	}
	pc.mu.Unlock()
	if err != nil {
		c.world.abort(c.rank, err)
		panic(c.world.Aborted())
	}
}

// token returns the given side's completion-token channel.
func (pc *pchan) token(psend bool) chan struct{} {
	if psend {
		return pc.sendDone
	}
	return pc.recvDone
}

// block consumes this side's completion token: the fast path — token
// already released — is a single non-blocking channel read.
func (pc *pchan) block(r *Request) {
	tok := pc.token(r.psend)
	select {
	case <-tok:
		return
	default:
	}
	select {
	case <-tok:
	case <-r.comm.world.abortCh:
		panic(r.comm.world.Aborted())
	}
}

func (pc *pchan) blockTimeout(r *Request, d time.Duration) error {
	tok := pc.token(r.psend)
	select {
	case <-tok:
		return nil
	default:
	}
	w := r.comm.world
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-tok:
		return nil
	case <-w.abortCh:
		return w.Aborted()
	case <-t.C:
		return &TimeoutError{After: d, Op: pc.opName(r)}
	}
}

// finish runs after this side's token was consumed: deactivate, tick
// progress, and on the receive side account the delivered payload.
func (pc *pchan) finish(r *Request) int {
	c := r.comm
	c.world.progressTick()
	if r.psend {
		pc.mu.Lock()
		pc.sendActive = false
		pc.mu.Unlock()
		return 0
	}
	pc.mu.Lock()
	pc.recvActive = false
	n := len(pc.sendBuf)
	pc.mu.Unlock()
	c.recvMsgs.Add(1)
	c.recvBytes.Add(int64(8 * n))
	if m := c.m; m != nil {
		m.recvBytes.Observe(float64(8 * n))
	}
	return n
}

func (pc *pchan) opName(r *Request) string {
	if r.psend {
		return fmt.Sprintf("wait psend dst=%d tag=%d", pc.key.dst, pc.key.tag)
	}
	return fmt.Sprintf("wait precv src=%d tag=%d", pc.key.src, pc.key.tag)
}

func (pc *pchan) rebind(r *Request, buf []float64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if r.psend {
		if pc.sendActive {
			panic("mpi: Rebind on an active persistent send")
		}
		pc.sendBuf = buf
	} else {
		if pc.recvActive {
			panic("mpi: Rebind on an active persistent receive")
		}
		pc.recvBuf = buf
	}
	pc.checkSizesLocked()
}

func (pc *pchan) free(r *Request) {
	pr := pc.reg
	pr.mu.Lock()
	pc.mu.Lock()
	var matched, freed bool
	if r.psend {
		freed = pc.sendFreed
		pc.sendFreed = true
		matched = pc.recvComm != nil
		pc.sendFired = false
		pc.sendBuf = nil
	} else {
		freed = pc.recvFreed
		pc.recvFreed = true
		matched = pc.sendComm != nil
		pc.recvFired = false
		pc.recvBuf = nil
	}
	gone := !freed && (!matched || (pc.sendFreed && pc.recvFreed))
	pc.mu.Unlock()
	if !matched && !freed {
		if r.psend {
			remove(pr.sends, pc.key, pc)
		} else {
			remove(pr.recvs, pc.key, pc)
		}
	}
	if gone {
		pr.dropLocked(pc)
	}
	pr.mu.Unlock()
}

// PersistentPending reports the persistent-endpoint population: unmatched
// counts endpoints whose peer never registered (each is a latent deadlock —
// the watchdog reports them as psend-unpaired/precv-unpaired), and live
// counts channels not yet freed by both sides. After every exchanger on
// every rank is closed, both should be zero; leak tests assert exactly
// that.
func (w *World) PersistentPending() (unmatched, live int) {
	return w.tr.persistentPending()
}
