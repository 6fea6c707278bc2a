package main

import (
	"fmt"
	"math"

	"github.com/bricklab/brick/internal/stencil"
)

// conservationBound is the largest rounding drift allowed between the
// global sums of two runs of the periodic Star7 problem that differ in step
// count. Star7's coefficients sum to 1 and every value stays in [-1, 1], so
// the exact global sum never changes; in float64 each step can move it by
// at most 16·ε per point (a 7-term dot product plus the coefficient sum's
// own rounding), and each of the two naive global sums adds at most
// points·ε per point.
func conservationBound(steps int, points float64) float64 {
	const eps = 0x1p-52
	return eps * points * (16*float64(steps) + 2*points)
}

// checkConserved compares the global sum after steps steps with the
// one-step sum of the same problem.
func checkConserved(sumSteps, sumOne float64, steps int, points float64) error {
	if d, b := math.Abs(sumSteps-sumOne), conservationBound(steps, points); !(d <= b) {
		return fmt.Errorf("global sum after %d steps is %v, one-step sum %v: drift %.3g exceeds rounding bound %.3g",
			steps, sumSteps, sumOne, d, b)
	}
	return nil
}

// agree returns the checksum at least two of sums share bit for bit, and
// the indices of the entries that differ from it. With no such majority
// every index is returned. Entries where ok is false are not voted on and
// never returned.
func agree(sums []float64, ok []bool) (consensus uint64, odd []int) {
	found := false
	for i := range sums {
		if !ok[i] || found {
			continue
		}
		for j := i + 1; j < len(sums); j++ {
			if ok[j] && math.Float64bits(sums[j]) == math.Float64bits(sums[i]) {
				consensus, found = math.Float64bits(sums[i]), true
				break
			}
		}
	}
	for i := range sums {
		if ok[i] && (!found || math.Float64bits(sums[i]) != consensus) {
			odd = append(odd, i)
		}
	}
	return consensus, odd
}

// checkField compares a rank's computed subdomain with the serial
// reference, element by element and bit for bit; at reads the computed
// field in global coordinates.
func checkField(ref *refField, org [3]int, dom int, at func(x, y, z int) float64) error {
	for z := 0; z < dom; z++ {
		for y := 0; y < dom; y++ {
			for x := 0; x < dom; x++ {
				got := at(x, y, z)
				want := ref.at(org[0]+x, org[1]+y, org[2]+z)
				if math.Float64bits(got) != math.Float64bits(want) {
					return fmt.Errorf("element (%d,%d,%d) is %v, serial reference %v",
						org[0]+x, org[1]+y, org[2]+z, got, want)
				}
			}
		}
	}
	return nil
}

// refField is a serial reference solution on the global periodic domain.
type refField struct {
	n    [3]int
	data []float64
}

func (r *refField) at(x, y, z int) float64 { return r.data[(z*r.n[1]+y)*r.n[0]+x] }

// referenceSweep applies st steps times to the global periodic domain of
// extent n, starting from init. It is written independently of the
// program's kernels and ghost exchanges: it wraps indices instead of
// reading ghost zones. Taps are accumulated in the stencil's point order
// starting from zero, the order that makes the result reproducible bit for
// bit.
func referenceSweep(n [3]int, steps int, init func(x, y, z int) float64) *refField {
	st := stencil.Star7()
	a := make([]float64, n[0]*n[1]*n[2])
	b := make([]float64, len(a))
	idx := func(x, y, z int) int { return (z*n[1]+y)*n[0] + x }
	for z := 0; z < n[2]; z++ {
		for y := 0; y < n[1]; y++ {
			for x := 0; x < n[0]; x++ {
				a[idx(x, y, z)] = init(x, y, z)
			}
		}
	}
	// wrapped[axis][offset+radius][v] is the periodic neighbour coordinate.
	r := st.Radius
	var wrapped [3][][]int
	for ax := 0; ax < 3; ax++ {
		for o := -r; o <= r; o++ {
			row := make([]int, n[ax])
			for v := range row {
				row[v] = ((v+o)%n[ax] + n[ax]) % n[ax]
			}
			wrapped[ax] = append(wrapped[ax], row)
		}
	}
	for s := 0; s < steps; s++ {
		for z := 0; z < n[2]; z++ {
			for y := 0; y < n[1]; y++ {
				for x := 0; x < n[0]; x++ {
					acc := 0.0
					for _, p := range st.Points {
						acc += p.C * a[idx(wrapped[0][p.DI+r][x], wrapped[1][p.DJ+r][y], wrapped[2][p.DK+r][z])]
					}
					b[idx(x, y, z)] = acc
				}
			}
		}
		a, b = b, a
	}
	return &refField{n: n, data: a}
}
