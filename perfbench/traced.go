package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"github.com/bricklab/brick/internal/core"
	"github.com/bricklab/brick/internal/grid"
	"github.com/bricklab/brick/internal/harness"
	"github.com/bricklab/brick/internal/layout"
	"github.com/bricklab/brick/internal/mpi"
	"github.com/bricklab/brick/internal/netmodel"
	"github.com/bricklab/brick/internal/stencil"
)

// roundSteps is the step count of one traced round: two ghost-expansion
// periods, or sixteen exchanges without expansion.
const roundSteps = 16

// setupReps is how often the traced run builds each implementation's
// subdomain and exchanger; the median is reported and the last one drives
// the step loop. The shmem persistent endpoint table never frees entries,
// so this stays small.
const setupReps = 3

// runTraced drives the layers directly on an in-process world of the
// workload's transport — worker processes cannot be traced from outside —
// and reports per-layer figures. dur is split over the layers: a fifth for
// mpi, a tenth for the stencil kernels, a fifth per implementation's step
// loop.
func runTraced(w workload, seed int64, dur time.Duration, path string, log io.Writer) (*report, error) {
	rep := newReport()
	epoch := time.Now()
	share := func(f float64) time.Duration { return time.Duration(f * float64(dur)) }
	if err := mpiLayer(w, seed, share(0.2), rep); err != nil {
		return nil, err
	}
	stencilLayer(w, seed, share(0.1), rep)

	n := [3]int{ranks * w.dom, w.dom, w.dom}
	ref := referenceSweep(n, roundSteps, func(x, y, z int) float64 { return seedValue(seed, x, y, z) })
	var logs []*spanLog
	var tracedSum, plainSum float64
	for i := range impls {
		st, err := stepLayer(w, seed, i, ref, share(0.2), epoch)
		if err != nil {
			return nil, err
		}
		rep.Attempted += st.rounds
		rep.Failed += st.failed
		for _, e := range st.errs {
			rep.Correct = false
			fmt.Fprintf(log, "# check failed: %s %s: %v\n", w.name, impls[i].name, e)
		}
		st.report(w, i, rep)
		logs = append(logs, st.logs[:]...)
		tracedSum += median(st.tracedRound)
		plainSum += median(st.plainRound)
	}
	rep.set("trace.overhead", "ratio", tracedSum/plainSum-1)
	if err := writeChromeTrace(path, logs); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# trace: %s\n", path)
	return rep, nil
}

// seedValue is the traced run's initial field at global coordinates, a
// hash of the seed and the coordinates mapped to [-1, 1).
func seedValue(seed int64, x, y, z int) float64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(x)*0xBF58476D1CE4E5B9 ^
		uint64(y)*0x94D049BB133111EB ^ uint64(z)*0x2545F4914F6CDD1D
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	return float64(h>>11)/(1<<53)*2 - 1
}

// pingSizes are the ping-pong payloads, in float64 elements.
var pingSizes = []struct {
	name  string
	elems int
	batch int // round trips per timed batch
}{
	{"64B", 8, 200},
	{"4KiB", 512, 200},
	{"512KiB", 65536, 16},
}

// mpiLayer measures the transport: world creation, persistent ping-pong
// half round trips, allocations per round trip and barrier latency.
func mpiLayer(w workload, seed int64, budget time.Duration, rep *report) error {
	var worldMs []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		wd, err := mpi.NewWorldOn(w.transport, ranks)
		if err != nil {
			return fmt.Errorf("world: %w", err)
		}
		worldMs = append(worldMs, ms(time.Since(t0)))
		wd.Close()
	}
	rep.set("mpi.world_ms", "ms", median(worldMs))

	wd, err := mpi.NewWorldOn(w.transport, ranks)
	if err != nil {
		return fmt.Errorf("world: %w", err)
	}
	defer wd.Close()
	per := budget / time.Duration(len(pingSizes)+2)
	halfRTT := make([][]float64, len(pingSizes))
	var batches, failed int
	var allocs float64
	var barrier []float64
	err = runWorld(wd, func(c *mpi.Comm) {
		me := c.Rank()
		for si, sz := range pingSizes {
			out := make([]float64, sz.elems)
			in := make([]float64, sz.elems)
			var sreq, rreq *mpi.Request
			if me == 0 {
				sreq = c.SendInit(1, 100+2*si, out)
				rreq = c.RecvInit(1, 101+2*si, in)
			} else { // rank 1 echoes into and out of one buffer
				rreq = c.RecvInit(0, 100+2*si, in)
				sreq = c.SendInit(0, 101+2*si, in)
			}
			trip := func() {
				if me == 0 {
					rreq.Start()
					sreq.Start()
					sreq.Wait()
					rreq.Wait()
				} else {
					rreq.Start()
					rreq.Wait()
					sreq.Start()
					sreq.Wait()
				}
			}
			t0 := time.Now()
			for b := 0; ; b++ {
				if me == 0 {
					for i := range out {
						out[i] = seedValue(seed, b, si, i)
					}
				}
				c.Barrier()
				tb := time.Now()
				for k := 0; k < sz.batch; k++ {
					trip()
				}
				el := time.Since(tb)
				more := 0.0
				if me == 0 {
					batches++
					halfRTT[si] = append(halfRTT[si], us(el)/float64(2*sz.batch))
					if !equalBits(in, out) {
						failed++
					}
					if b < 2 || time.Since(t0) < per {
						more = 1
					}
				}
				if c.Allreduce1(mpi.OpMax, more) == 0 {
					break
				}
			}
			if si == 1 { // allocations per 4 KiB round trip
				const trips = 500
				var m0, m1 runtime.MemStats
				if me == 0 {
					runtime.ReadMemStats(&m0)
				}
				c.Barrier()
				for k := 0; k < trips; k++ {
					trip()
				}
				c.Barrier()
				if me == 0 {
					runtime.ReadMemStats(&m1)
					allocs = float64(m1.Mallocs-m0.Mallocs) / trips
				}
			}
			sreq.Free()
			rreq.Free()
		}
		t0 := time.Now()
		for {
			const n = 200
			c.Barrier()
			tb := time.Now()
			for k := 0; k < n; k++ {
				c.Barrier()
			}
			more := 0.0
			if me == 0 {
				barrier = append(barrier, us(time.Since(tb))/n)
				if len(barrier) < 3 || time.Since(t0) < per {
					more = 1
				}
			}
			if c.Allreduce1(mpi.OpMax, more) == 0 {
				break
			}
		}
	})
	if err != nil {
		return fmt.Errorf("mpi layer: %w", err)
	}
	for si, sz := range pingSizes {
		rep.set("mpi.pingpong_us."+sz.name, "us", median(halfRTT[si]))
	}
	rep.set("mpi.allocs_per_roundtrip", "count", allocs)
	rep.set("mpi.barrier_us", "us", median(barrier))
	rep.Attempted += batches
	rep.Failed += failed
	if failed > 0 {
		rep.Correct = false
	}
	return nil
}

// runWorld runs body on every rank of wd and returns a world abort as an
// error instead of re-raising it.
func runWorld(wd *mpi.World, body func(*mpi.Comm)) (err error) {
	defer func() {
		if p := recover(); p != nil {
			ae, ok := p.(*mpi.AbortError)
			if !ok {
				panic(p)
			}
			err = ae
		}
	}()
	wd.Run(body)
	return nil
}

func equalBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// stencilLayer times one 1-worker sweep of the subdomain with the brick
// kernel and with the lexicographic-grid kernel, alternating the two.
func stencilLayer(w workload, seed int64, budget time.Duration, rep *report) {
	dom := [3]int{w.dom, w.dom, w.dom}
	dec, err := core.NewBrickDecomp(core.Shape{brickSz, brickSz, brickSz}, dom, ghost, 2, layout.Surface3D())
	if err != nil {
		panic(err) // the workload table is fixed; a bad shape is a bug here
	}
	bs := dec.Allocate()
	info := dec.BrickInfo()
	g0, g1 := grid.New(dom, ghost), grid.New(dom, ghost)
	for z := 0; z < w.dom; z++ {
		for y := 0; y < w.dom; y++ {
			for x := 0; x < w.dom; x++ {
				v := seedValue(seed, x, y, z)
				dec.SetElem(bs, 0, x+ghost, y+ghost, z+ghost, v)
				g0.Set(x+ghost, y+ghost, z+ghost, v)
			}
		}
	}
	st := stencil.Star7()
	src, dst := core.NewBrick(info, bs, 0), core.NewBrick(info, bs, 1)
	pts := float64(w.dom * w.dom * w.dom)
	var bricks, grids []float64
	t0 := time.Now()
	for len(bricks) < 3 || time.Since(t0) < budget {
		tb := time.Now()
		stencil.ApplyBricksParallel(dst, src, dec, st, 0, 1)
		bricks = append(bricks, pts/time.Since(tb).Seconds()/1e9)
		tg := time.Now()
		stencil.ApplyGridWorkers(g1, g0, st, 0, 1)
		grids = append(grids, pts/time.Since(tg).Seconds()/1e9)
	}
	rep.set("stencil.bricks.gstencils", "GStencil/s", median(bricks))
	rep.set("stencil.grid.gstencils", "GStencil/s", median(grids))
}

// subdomain is one rank's double-buffered field and exchanger for one
// implementation, stepped the way the harness steps it.
type subdomain interface {
	// load writes init (local domain coordinates) into the interior of the
	// first buffer and makes it current.
	load(init func(x, y, z int) float64)
	start()
	complete()
	// sweep applies the stencil within margin of the domain, from the
	// current buffer into the other, and makes that one current.
	sweep(margin int)
	// at reads the current buffer at local domain coordinates.
	at(x, y, z int) float64
	close()
}

// newSubdomain builds an implementation's subdomain as the harness does:
// decomposition, allocation (a mapped arena for MemMap), exchanger.
func newSubdomain(im harness.Impl, dom int, cart *mpi.Cart) (subdomain, error) {
	d3 := [3]int{dom, dom, dom}
	if im == harness.YASK {
		g := &gridSub{gs: [2]*grid.Grid{grid.New(d3, ghost), grid.New(d3, ghost)}}
		// Every rank builds exs[0] before exs[1], so the persistent
		// endpoints pair exchanger to exchanger.
		g.exs[0] = grid.NewPackExchanger(g.gs[0], cart)
		g.exs[1] = grid.NewPackExchanger(g.gs[1], cart)
		return g, nil
	}
	var opts []core.Option
	if im == harness.MemMap {
		opts = append(opts, core.WithPageAlignment(netmodel.Local().PageSize))
	}
	dec, err := core.NewBrickDecomp(core.Shape{brickSz, brickSz, brickSz}, d3, ghost, 2, layout.Surface3D(), opts...)
	if err != nil {
		return nil, err
	}
	b := &brickSub{dec: dec, info: dec.BrickInfo()}
	bx := core.NewExchanger(dec, cart)
	if im == harness.MemMap {
		if b.bs, err = dec.MmapAllocate(); err != nil {
			return nil, err
		}
		if b.ex, err = core.NewExchangeView(bx, b.bs); err != nil {
			b.bs.Close()
			return nil, err
		}
		return b, nil
	}
	b.bs = dec.Allocate()
	b.ex = core.NewLayoutExchange(bx, b.bs)
	return b, nil
}

// gridSub is the YASK subdomain: two lexicographic grids, one packing
// exchanger per grid.
type gridSub struct {
	gs  [2]*grid.Grid
	exs [2]*grid.PackExchanger
	cur int
}

func (g *gridSub) load(init func(x, y, z int) float64) {
	g.cur = 0
	for z := 0; z < g.gs[0].Dom[2]; z++ {
		for y := 0; y < g.gs[0].Dom[1]; y++ {
			for x := 0; x < g.gs[0].Dom[0]; x++ {
				g.gs[0].Set(x+ghost, y+ghost, z+ghost, init(x, y, z))
			}
		}
	}
}
func (g *gridSub) start()    { g.exs[g.cur].Start() }
func (g *gridSub) complete() { g.exs[g.cur].Complete() }
func (g *gridSub) sweep(margin int) {
	stencil.ApplyGridWorkers(g.gs[1-g.cur], g.gs[g.cur], stencil.Star7(), margin, 1)
	g.cur = 1 - g.cur
}
func (g *gridSub) at(x, y, z int) float64 { return g.gs[g.cur].At(x+ghost, y+ghost, z+ghost) }
func (g *gridSub) close() {
	g.exs[0].Close()
	g.exs[1].Close()
}

// brickSub is the Layout or MemMap subdomain: brick storage with two
// interleaved fields and one exchanger moving whole bricks.
type brickSub struct {
	dec  *core.BrickDecomp
	info *core.BrickInfo
	bs   *core.BrickStorage
	ex   core.Exchanger
	cur  int
}

func (b *brickSub) load(init func(x, y, z int) float64) {
	b.cur = 0
	dom := b.dec.Dom()
	for z := 0; z < dom[2]; z++ {
		for y := 0; y < dom[1]; y++ {
			for x := 0; x < dom[0]; x++ {
				b.dec.SetElem(b.bs, 0, x+ghost, y+ghost, z+ghost, init(x, y, z))
			}
		}
	}
}
func (b *brickSub) start()    { b.ex.Start() }
func (b *brickSub) complete() { b.ex.Complete() }
func (b *brickSub) sweep(margin int) {
	stencil.ApplyBricksParallel(core.NewBrick(b.info, b.bs, 1-b.cur), core.NewBrick(b.info, b.bs, b.cur),
		b.dec, stencil.Star7(), margin, 1)
	b.cur = 1 - b.cur
}
func (b *brickSub) at(x, y, z int) float64 {
	return b.dec.Elem(b.bs, b.cur, x+ghost, y+ghost, z+ghost)
}
func (b *brickSub) close() {
	b.ex.Close()
	b.bs.Close()
}

// layerOf names the module whose exchanger implementation i uses.
func layerOf(i int) string {
	if impls[i].impl == harness.YASK {
		return "grid"
	}
	return "core"
}

// stepStats is what one implementation's step loop measured.
type stepStats struct {
	startName, completeName string // span names of the exchanger's calls
	setupMs                 []float64
	plainRound, tracedRound []float64 // wall seconds per round, rank 0
	msgs, bytes, exchanges  int64     // rank 0's traffic in traced rounds
	rounds, failed          int
	errs                    []error
	logs                    [ranks]*spanLog
}

// stepLayer builds one implementation on a fresh world and runs rounds of
// roundSteps steps from the seeded field, alternating untraced and traced
// rounds, and checks every round against the serial reference.
func stepLayer(w workload, seed int64, i int, ref *refField, budget time.Duration, epoch time.Time) (*stepStats, error) {
	wd, err := mpi.NewWorldOn(w.transport, ranks)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	defer wd.Close()
	st := &stepStats{startName: layerOf(i) + ".start", completeName: layerOf(i) + ".complete"}
	for r := range st.logs {
		st.logs[r] = &spanLog{epoch: epoch, pid: i, tid: r}
	}
	err = runWorld(wd, func(c *mpi.Comm) {
		me := c.Rank()
		cart := mpi.NewCart(c, []int{1, 1, ranks}, []bool{true, true, true})
		co := cart.MyCoords() // (k, j, i)
		org := [3]int{co[2] * w.dom, co[1] * w.dom, co[0] * w.dom}
		var sub subdomain
		for k := 0; k < setupReps; k++ {
			if sub != nil {
				sub.close()
			}
			c.Barrier()
			t0 := time.Now()
			var err error
			sub, err = newSubdomain(impls[i].impl, w.dom, cart)
			if err != nil {
				c.Abort(err)
			}
			c.Barrier() // both ranks' plans are paired
			if me == 0 {
				st.setupMs = append(st.setupMs, ms(time.Since(t0)))
			}
		}
		defer sub.close()
		init := func(x, y, z int) float64 { return seedValue(seed, org[0]+x, org[1]+y, org[2]+z) }
		t0 := time.Now()
		for round := 0; ; round++ {
			var l *spanLog
			if round%2 == 1 {
				l = st.logs[me]
			}
			sub.load(init)
			c.Barrier()
			tr := time.Now()
			for s := 0; s < roundSteps; s++ {
				tracedStep(c, sub, l, w, s, st)
			}
			el := time.Since(tr).Seconds()
			bad := 0.0
			if err := checkField(ref, org, w.dom, sub.at); err != nil {
				bad = 1
				if me == 0 {
					st.errs = append(st.errs, err)
				}
			}
			bad = c.Allreduce1(mpi.OpMax, bad)
			more := 0.0
			if me == 0 {
				st.rounds++
				if bad > 0 {
					st.failed++
				}
				switch {
				case round < 2: // warm-up pair: caches, first-touch pages
				case l == nil:
					st.plainRound = append(st.plainRound, el)
				default:
					st.tracedRound = append(st.tracedRound, el)
				}
				if round%2 == 0 || round < 5 || time.Since(t0) < budget {
					more = 1
				}
			}
			if c.Allreduce1(mpi.OpMax, more) == 0 {
				break
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s step loop: %w", impls[i].name, err)
	}
	return st, nil
}

// tracedStep is one step in the harness's non-overlapped order: barrier,
// exchange Start and Complete (on exchange steps), barrier, kernel. A nil
// log runs the same calls untraced.
func tracedStep(c *mpi.Comm, sub subdomain, l *spanLog, w workload, s int, st *stepStats) {
	root := l.begin("step", -1)
	sp := l.begin("mpi.barrier", root)
	c.Barrier()
	l.end(sp)
	if s%w.period() == 0 {
		count := l != nil && c.Rank() == 0
		if count {
			c.TrafficSnapshot() // drain: only this exchange's sends count
		}
		sp = l.begin(st.startName, root)
		sub.start()
		l.end(sp)
		sp = l.begin(st.completeName, root)
		sub.complete()
		l.end(sp)
		if count {
			tf := c.TrafficSnapshot()
			st.msgs += tf.SentMsgs
			st.bytes += tf.SentBytes
			st.exchanges++
		}
	}
	sp = l.begin("mpi.barrier", root)
	c.Barrier()
	l.end(sp)
	sp = l.begin("stencil.kernel", root)
	sub.sweep(w.margin(s))
	l.end(sp)
	l.end(root)
}

// report sets the implementation's per-layer metrics.
func (st *stepStats) report(w workload, i int, rep *report) {
	name, layer := impls[i].name, layerOf(i)
	var starts, completes []float64
	self := map[string]time.Duration{}
	var steps time.Duration
	for _, l := range st.logs {
		for n, d := range l.selfTimes() {
			self[n] += d
		}
		for _, s := range l.spans {
			switch s.name {
			case st.startName:
				starts = append(starts, us(s.end-s.start))
			case st.completeName:
				completes = append(completes, us(s.end-s.start))
			case "step":
				steps += s.end - s.start
			}
		}
	}
	ext := w.dom + 2*ghost
	ghostBytes := float64(8 * (ext*ext*ext - w.dom*w.dom*w.dom))
	rep.set(layer+".start_us."+name, "us", median(starts))
	rep.set(layer+".complete_us."+name, "us", median(completes))
	rep.set(layer+".msgs."+name, "count", float64(st.msgs)/float64(st.exchanges))
	rep.set(layer+".wire_per_ghost."+name, "ratio", float64(st.bytes)/float64(st.exchanges)/ghostBytes)
	rep.set(layer+".setup_ms."+name, "ms", median(st.setupMs))
	frac := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += self[n]
		}
		return d.Seconds() / steps.Seconds()
	}
	rep.set("step.kernel_frac."+name, "fraction", frac("stencil.kernel"))
	rep.set("step.exchange_frac."+name, "fraction", frac(st.startName, st.completeName))
	rep.set("step.barrier_frac."+name, "fraction", frac("mpi.barrier"))
}
