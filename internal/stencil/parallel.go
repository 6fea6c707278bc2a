package stencil

import (
	"github.com/bricklab/brick/internal/core"
)

// ApplyBricksParallel is ApplyBricks with an explicit worker count: the
// brick list is divided into contiguous runs executed by the worker pool
// (the role of a rank's OpenMP team in the paper's experiments — bricks are
// independent units of parallel work, so no synchronization is needed
// within one application). workers <= 0 resolves via ResolveWorkers
// (BRICK_WORKERS, then GOMAXPROCS); 1 runs serially.
func ApplyBricksParallel(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin, workers int) {
	checkBrickApply(dec, st, margin)
	DefaultPool().ForRange(workers, dec.NumBricks(), func(lo, hi int) {
		applyBrickRange(dst, src, dec, st, margin, lo, hi)
	})
}

// ApplyBricksRangeWorkers is ApplyBricksRange with an explicit worker
// count; the [lo, hi) storage-index range is tiled across the pool.
func ApplyBricksRangeWorkers(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin, lo, hi, workers int) {
	checkBrickApply(dec, st, margin)
	if lo < 0 || hi > dec.NumBricks() || lo > hi {
		panic("stencil: brick range out of bounds")
	}
	DefaultPool().ForRange(workers, hi-lo, func(a, b int) {
		applyBrickRange(dst, src, dec, st, margin, lo+a, lo+b)
	})
}

// ApplyBricksSpans applies the stencil to each [start, end) span of brick
// storage indices, flattening all spans into one tiled iteration space so
// small spans (individual surface regions) still load-balance across the
// pool. Used by the overlapped step to compute every surface region after
// the exchange completes.
func ApplyBricksSpans(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin int, spans [][2]int, workers int) {
	checkBrickApply(dec, st, margin)
	total := 0
	starts := make([]int, len(spans)) // flattened start of each span
	for i, sp := range spans {
		if sp[0] < 0 || sp[1] > dec.NumBricks() || sp[0] > sp[1] {
			panic("stencil: brick span out of bounds")
		}
		starts[i] = total
		total += sp[1] - sp[0]
	}
	DefaultPool().ForRange(workers, total, func(flo, fhi int) {
		for i, sp := range spans {
			lo := max(flo, starts[i])
			hi := min(fhi, starts[i]+sp[1]-sp[0])
			if lo < hi {
				off := sp[0] - starts[i]
				applyBrickRange(dst, src, dec, st, margin, lo+off, hi+off)
			}
		}
	})
}

// applyBrickRange applies the stencil to bricks with storage indices in
// [loIdx, hiIdx), using the same box/fast-path dispatch as ApplyBricks.
func applyBrickRange(dst, src core.Brick, dec *core.BrickDecomp, st Stencil, margin, loIdx, hiIdx int) {
	sh := dec.Shape()
	dom, g := dec.Dom(), dec.Ghost()
	kr := newBrickKernel(sh, st)
	row := make([]float64, sh[0])
	for idx := loIdx; idx < hiIdx; idx++ {
		c := dec.BrickCoord(idx)
		if c[0] < 0 {
			continue
		}
		var lo, hi [3]int
		empty := false
		for a := 0; a < 3; a++ {
			org := c[a] * sh[a]
			lo[a] = max(0, g-margin-org)
			hi[a] = min(sh[a], g+dom[a]+margin-org)
			if lo[a] >= hi[a] {
				empty = true
			}
		}
		if empty {
			continue
		}
		kr.loadBases(src, idx)
		if kr.basesValidFor(src, lo, hi) {
			kr.runFast(dst, src, idx, row, lo, hi)
		} else {
			kr.run(dst, src, idx, func(i, j, k int) bool {
				return i >= lo[0] && i < hi[0] && j >= lo[1] && j < hi[1] && k >= lo[2] && k < hi[2]
			})
		}
	}
}
