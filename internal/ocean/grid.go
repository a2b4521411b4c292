// Package ocean implements the paper's ocean eddy simulation (§3.1),
// converted from the SPLASH suite: "The program computes ocean eddy
// currents using a multigrid technique on an underlying grid." The
// computational core retained here is the SPLASH Ocean skeleton — 5-point
// stencil updates (vorticity, Arakawa-style Jacobian, wind forcing)
// followed by a red-black Gauss-Seidel multigrid solve of the stream
// function to tolerance, on an (n+2)×(n+2) grid with fixed boundary.
//
// Parallelization is by horizontal strips at every multigrid level; each
// relaxation color sweep, restriction and prolongation is preceded by a
// ghost-row exchange superstep, and the convergence check is a max-norm
// all-reduce. Ghost values travel as 16-byte (row|field, col, value)
// records — one Green BSP packet per element.
//
// Because red-black relaxation is order-independent within a color and
// the convergence reduction is an exact max, the parallel solver computes
// bit-identical fields to the sequential one at every process count —
// the property the correctness tests assert.
//
// The stencil kernels run over per-row windows, so their inner loops
// carry no bounds checks, but they keep every expression and its
// evaluation order: no reassociation, reciprocal multiply or FMA. Thus
// parallel equals sequential equals the golden fields that
// TestGoldenNumerics pins. The ghost exchange does not allocate: a
// superstep of the solver allocates nothing in steady state.
package ocean

import "fmt"

// slab holds one process's rows of one (m+2)×(m+2) grid level: owned
// interior rows [lo, hi) plus a two-row halo below and a one-row halo
// above (bilinear prolongation reads one coarse row beyond the ghost).
// Global rows are 1-based for the interior; rows 0 and m+1 are the
// physical boundary.
type slab struct {
	m      int // interior dimension
	lo, hi int // owned global interior rows, lo <= r < hi
	vals   []float64
}

// slabHalo is the number of halo rows stored below lo (and one fewer
// above hi-1).
const slabHalo = 2

func newSlab(m, lo, hi int) *slab {
	rows := hi - lo + 2*slabHalo
	if rows < 2*slabHalo {
		rows = 2 * slabHalo
	}
	return &slab{m: m, lo: lo, hi: hi, vals: make([]float64, rows*(m+2))}
}

// row returns the storage for global row g, valid for lo-2 <= g <= hi+1.
func (s *slab) row(g int) []float64 {
	i := g - (s.lo - slabHalo)
	return s.vals[i*(s.m+2) : (i+1)*(s.m+2)]
}

// owns reports whether g is an owned interior row.
func (s *slab) owns(g int) bool { return g >= s.lo && g < s.hi }

// holds reports whether g is stored (owned or halo/boundary).
func (s *slab) holds(g int) bool { return g >= s.lo-slabHalo && g <= s.hi+slabHalo-1 }

// zero clears all stored values.
func (s *slab) zero() {
	for i := range s.vals {
		s.vals[i] = 0
	}
}

// rowRange returns the owned rows of process q for an m-row interior
// split proportionally across p processes.
func rowRange(m, p, q int) (lo, hi int) {
	return m*q/p + 1, m*(q+1)/p + 1
}

// ownerOfRow returns the process owning interior row r (1-based).
func ownerOfRow(m, p, r int) int {
	q := (r - 1) * p / m
	// Guard against integer rounding at chunk boundaries.
	for {
		lo, hi := rowRange(m, p, q)
		if r < lo {
			q--
		} else if r >= hi {
			q++
		} else {
			return q
		}
	}
}

// checkGrid validates the paper's size convention: size = n+2 where the
// interior n is a power of two (66, 130, 258, 514 → 64, 128, 256, 512).
func checkGrid(size int) (int, error) {
	m := size - 2
	if m < 4 || m&(m-1) != 0 {
		return 0, fmt.Errorf("ocean: size must be 2^k+2 with k >= 2, got %d", size)
	}
	return m, nil
}
