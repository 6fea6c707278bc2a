package core

import (
	"time"

	"github.com/bricklab/brick/internal/mpi"
)

// LayoutExchange binds a BrickExchanger's span plan to one storage and
// compiles it into a persistent Exchanger: every contiguous brick run that
// crosses a rank boundary becomes one pre-matched persistent request over
// a fixed storage window, built once here and reused by every
// Start/Complete cycle with zero per-step allocation. This is the
// Plan/Start/Complete form of the Basic and Layout exchanges (98 and 42
// messages per rank in 3D respectively — the plan size depends only on the
// decomposition's brick order).
type LayoutExchange struct {
	PlanBase
	e          *BrickExchanger
	bs         *BrickStorage
	persistent bool
	precvs     []*mpi.Request
	psends     []*mpi.Request
	pall       []*mpi.Request // precvs ++ psends, for one Waitall
}

var _ Exchanger = (*LayoutExchange)(nil)

// NewLayoutExchange compiles the exchanger's message plan against bs. With
// WithPersistentPlan(false) the compiled plan is kept (for reporting) but
// each Start falls back to one-shot Isend/Irecv through the matching
// engine.
func NewLayoutExchange(e *BrickExchanger, bs *BrickStorage, opts ...PlanOption) *LayoutExchange {
	o := defaultPlanOpts()
	for _, f := range opts {
		f(&o)
	}
	lx := &LayoutExchange{e: e, bs: bs, persistent: o.persistent}
	chunk := bs.Chunk()
	plan := ExchangePlan{Variant: "spans", Persistent: o.persistent}
	for _, m := range e.d.recvMsgs {
		src := e.rank[m.Dir]
		if src < 0 {
			continue
		}
		buf := bs.Data[m.Span.Start*chunk : m.Span.PaddedEnd()*chunk]
		plan.Recvs = append(plan.Recvs, PlanMsg{Peer: src, Tag: m.Tag, Bytes: int64(8 * len(buf))})
		if o.persistent {
			lx.precvs = append(lx.precvs, e.comm.RecvInit(src, m.Tag, buf))
		}
	}
	for _, m := range e.d.sendMsgs {
		dst := e.rank[m.Dir]
		if dst < 0 {
			continue
		}
		buf := bs.Data[m.Span.Start*chunk : m.Span.PaddedEnd()*chunk]
		plan.Sends = append(plan.Sends, PlanMsg{Peer: dst, Tag: m.Tag, Bytes: int64(8 * len(buf))})
		if o.persistent {
			lx.psends = append(lx.psends, e.comm.SendInit(dst, m.Tag, buf))
		}
	}
	lx.pall = make([]*mpi.Request, 0, len(lx.precvs)+len(lx.psends))
	lx.pall = append(append(lx.pall, lx.precvs...), lx.psends...)
	lx.SetPlan(plan)
	return lx
}

// Start posts one exchange (receives first, then sends) and returns the
// number of sends posted. The storage windows are live in flight: callers
// overlapping computation must touch neither surface nor ghost bricks
// until Complete returns.
func (lx *LayoutExchange) Start() int {
	t0 := time.Now()
	var n int
	if lx.persistent {
		mpi.Startall(lx.precvs)
		mpi.Startall(lx.psends)
		n = len(lx.psends)
	} else {
		lx.e.PostReceives(lx.bs)
		n = lx.e.PostSends(lx.bs)
	}
	lx.AddCall(time.Since(t0))
	lx.RecordStart()
	return n
}

// Complete blocks until every transfer of the current Start has finished.
func (lx *LayoutExchange) Complete() {
	t0 := time.Now()
	if lx.persistent {
		mpi.Waitall(lx.pall)
	} else {
		lx.e.Wait()
	}
	lx.AddWait(time.Since(t0))
}

// Exchange runs one full Start+Complete cycle, returning the sends posted.
func (lx *LayoutExchange) Exchange() int {
	n := lx.Start()
	lx.Complete()
	return n
}

// Close releases the persistent endpoints. The plan may be rebuilt against
// the same world afterwards without cross-matching stale endpoints.
func (lx *LayoutExchange) Close() error {
	for _, r := range lx.pall {
		r.Free()
	}
	lx.precvs, lx.psends, lx.pall = nil, nil, nil
	return nil
}
