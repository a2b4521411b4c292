package ocean

import (
	"math"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/wire"
)

// machine abstracts the two BSP operations the solver needs, so the
// identical numerical code runs sequentially (no-op communication: the
// single slab holds every row) and in parallel (ghost-row exchange
// supersteps and a max all-reduce).
type machine interface {
	// exchange performs one superstep in which the ghost rows of one
	// field are refreshed from their owners.
	exchange(it exch)
	// exchangeToFine performs one superstep in which every owned coarse
	// row R is sent to the owners of fine rows 2R-1 and 2R (fine
	// interior is 2×coarse). This is the prolongation dependency, which
	// the neighbor ghost exchange cannot satisfy when some processes
	// own no rows of the coarse level.
	exchangeToFine(fid int, coarse *slab)
	// maxAll returns the global maximum of x (one superstep).
	maxAll(x float64) float64
	// barrier performs one empty superstep. The recoverable driver
	// runs one at each timestep boundary: the machine state there is
	// just (timestep, ψ), which is what the checkpoint hooks capture.
	barrier()
	// work reports n abstract work units (grid-cell updates) for the
	// current superstep.
	work(n int)
}

// exch names one field taking part in a ghost exchange. color selects
// which columns of the ghost rows travel: -1 means all; otherwise only
// the columns a red-black half-sweep of that color will actually read —
// the traffic optimization the SPLASH-derived code relies on (ghost h
// per sweep is half a row).
type exch struct {
	fid   int
	s     *slab
	color int
}

// seqMachine runs the solver on a single process: slabs span all rows,
// so ghosts coincide with the physical boundary and exchanges are no-ops.
type seqMachine struct{}

func (seqMachine) exchange(exch)             {}
func (seqMachine) exchangeToFine(int, *slab) {}
func (seqMachine) maxAll(x float64) float64  { return x }
func (seqMachine) barrier()                  {}
func (seqMachine) work(int)                  {}

// bspMachine binds the solver to a BSP process. Its exchanges do not
// allocate: the per-destination writers are reused, fields are found
// by indexing fieldOf with their fid, and exchangeToFine reuses sent as
// its destination set.
type bspMachine struct {
	c       *core.Proc
	p       int
	fieldOf []*slab
	out     []*wire.Writer
	sent    []bool
}

func newBSPMachine(c *core.Proc) *bspMachine {
	m := &bspMachine{c: c, p: c.P(), out: make([]*wire.Writer, c.P()), sent: make([]bool, c.P())}
	for i := range m.out {
		m.out[i] = wire.NewWriter(0)
	}
	return m
}

func (m *bspMachine) register(fid int, s *slab) {
	for len(m.fieldOf) <= fid {
		m.fieldOf = append(m.fieldOf, nil)
	}
	m.fieldOf[fid] = s
}

// exchange implements machine: each process sends its first owned row to
// the owner above and its last owned row to the owner below, as 16-byte
// (row|fid, col, value) records, then absorbs the records addressed to
// its ghost rows.
func (m *bspMachine) exchange(it exch) {
	if s := it.s; s.lo < s.hi { // else this process owns no rows at this level
		if s.lo > 1 {
			m.sendRowColor(it.fid, s, s.lo, ownerOfRow(s.m, m.p, s.lo-1), it.color)
		}
		if s.hi-1 < s.m {
			m.sendRowColor(it.fid, s, s.hi-1, ownerOfRow(s.m, m.p, s.hi), it.color)
		}
	}
	m.flushAndAbsorb()
}

// flushAndAbsorb sends the queued records, ends the superstep and
// stores every received record into the ghost row it addresses.
func (m *bspMachine) flushAndAbsorb() {
	for q := 0; q < m.p; q++ {
		if m.out[q].Len() > 0 {
			m.c.Send(q, m.out[q].Bytes())
			m.out[q].Reset()
		}
	}
	m.c.Sync()
	for {
		msg, ok := m.c.Recv()
		if !ok {
			return
		}
		r := wire.NewReader(msg)
		for r.Remaining() >= 16 {
			tag := r.Uint32()
			col := int(r.Uint32())
			v := r.Float64()
			row := int(tag & 0xFFFFF)
			fid := int(tag >> 20)
			if fid >= len(m.fieldOf) {
				continue
			}
			s := m.fieldOf[fid]
			if s != nil && s.holds(row) && !s.owns(row) {
				s.row(row)[col] = v
			}
		}
	}
}

func (m *bspMachine) sendRow(fid int, s *slab, row, dst int) {
	m.sendRowColor(fid, s, row, dst, -1)
}

// sendRowColor ships one ghost row; with color >= 0 only the columns a
// half-sweep of that color reads from row's neighbors travel: the
// updated cells of the neighbor rows r = row±1 have parity
// (r+color)%2 in (r+c), i.e. columns c ≡ row+color+1 (mod 2).
func (m *bspMachine) sendRowColor(fid int, s *slab, row, dst, color int) {
	if dst == m.c.ID() {
		return
	}
	w := m.out[dst]
	vals := s.row(row)
	tag := uint32(row) | uint32(fid)<<20
	c0, step := 1, 1
	if color >= 0 {
		// Receiver updates rows r = row∓1 at columns c with
		// c ≡ 1+(r+color) (mod 2); with r = row±1 that is
		// c ≡ row+color (mod 2).
		step = 2
		c0 = 1 + (row+color+1)%2
	}
	for c := c0; c <= s.m; c += step {
		w.Uint32(tag)
		w.Uint32(uint32(c))
		w.Float64(vals[c])
	}
}

// exchangeToFine implements machine: coarse row R goes to the owners of
// fine rows 2R-3 .. 2R+2, the processes whose bilinear prolongation
// stencils read R.
func (m *bspMachine) exchangeToFine(fid int, coarse *slab) {
	fineM := 2 * coarse.m
	for r := coarse.lo; r < coarse.hi; r++ {
		clear(m.sent)
		m.sent[m.c.ID()] = true
		for fr := 2*r - 3; fr <= 2*r+2; fr++ {
			if fr < 1 || fr > fineM {
				continue
			}
			q := ownerOfRow(fineM, m.p, fr)
			if !m.sent[q] {
				m.sent[q] = true
				m.sendRow(fid, coarse, r, q)
			}
		}
	}
	m.flushAndAbsorb()
}

func (m *bspMachine) maxAll(x float64) float64 {
	return collect.AllReduce(m.c, x, collect.MaxFloat)
}

func (m *bspMachine) barrier() { m.c.Sync() }

func (m *bspMachine) work(n int) { m.c.AddWork(n) }

// level is one multigrid level: solution u, right-hand side f, residual r.
type level struct {
	m       int
	h2      float64 // grid spacing squared
	u, f, r *slab
}

// fids for a level's three fields.
func fidU(l int) int { return 3 * l }
func fidF(l int) int { return 3*l + 1 }
func fidR(l int) int { return 3*l + 2 }

// solver carries the multigrid hierarchy for one process.
type solver struct {
	mc     machine
	levels []*level
	// preSmooth/postSmooth are red-black Gauss-Seidel iteration counts.
	preSmooth, postSmooth, coarseSweeps int
	tol                                 float64
	maxCycles                           int
}

// newSolver builds the hierarchy for interior size m split across p
// processes, with this process at rank q. Coarsening always stops at a
// 4×4 interior regardless of p, so the superstep structure — and hence S
// and the computed fields — is identical at every process count;
// processes simply own no rows of levels coarser than p (that idling is
// exactly the coarse-grid latency cost the paper observes on the
// high-latency Cenju).
func newSolver(mc machine, m, p, q int) *solver {
	s := &solver{mc: mc, preSmooth: 2, postSmooth: 1, coarseSweeps: 6, tol: 5e-3, maxCycles: 25}
	const minM = 4
	for lm, l := m, 0; lm >= minM; lm, l = lm/2, l+1 {
		lo, hi := rowRange(lm, p, q)
		lv := &level{m: lm, h2: 1 / float64((lm+1)*(lm+1)),
			u: newSlab(lm, lo, hi), f: newSlab(lm, lo, hi), r: newSlab(lm, lo, hi)}
		s.levels = append(s.levels, lv)
		if bm, ok := mc.(*bspMachine); ok {
			bm.register(fidU(l), lv.u)
			bm.register(fidF(l), lv.f)
			bm.register(fidR(l), lv.r)
		}
		if lm/2 < minM {
			break
		}
	}
	return s
}

// The stencil kernels below run their inner loops over windows of a
// row: me is the row's interior, index i is column i+1, and up, dn, w
// and e are the north, south, west and east neighbours at the same
// index. Each window is resliced once per row to the same length, so
// the compiler drops the bounds checks from the inner loop. Expressions
// keep their evaluation order (see the package comment).

// smoothColor performs one half-sweep of red-black Gauss-Seidel on level
// l, preceded by a u-ghost exchange (one superstep).
func (s *solver) smoothColor(l, color int) {
	lv := s.levels[l]
	u, f, m, h2 := lv.u, lv.f, lv.m, lv.h2
	s.mc.exchange(exch{fidU(l), u, color})
	for r := u.lo; r < u.hi; r++ {
		// One window reaches the east boundary column, so the stride-2
		// bound is a length minus one and cannot overflow.
		row := u.row(r)
		me := row[1 : m+2]
		n := len(me) - 1
		w, e := row[:n], row[2:][:n]
		up, dn, fr := u.row(r - 1)[1:][:n], u.row(r + 1)[1:][:n], f.row(r)[1:][:n]
		for i := (r + color) & 1; i < n; i += 2 {
			me[i] = 0.25 * (up[i] + dn[i] + w[i] + e[i] - h2*fr[i])
		}
	}
	s.mc.work((u.hi - u.lo) * m / 2)
}

func (s *solver) smooth(l, iters int) {
	for i := 0; i < iters; i++ {
		s.smoothColor(l, 0)
		s.smoothColor(l, 1)
	}
}

// computeResidual fills r = f - A·u on level l (one exchange superstep
// for u).
func (s *solver) computeResidual(l int) {
	lv := s.levels[l]
	u, m := lv.u, lv.m
	s.mc.exchange(exch{fidU(l), u, -1})
	inv := 1 / lv.h2
	for r := u.lo; r < u.hi; r++ {
		row := u.row(r)
		me := row[1 : m+1]
		w, e := row[:len(me)], row[2:][:len(me)]
		up, dn := u.row(r - 1)[1:][:len(me)], u.row(r + 1)[1:][:len(me)]
		fr, rr := lv.f.row(r)[1:][:len(me)], lv.r.row(r)[1:][:len(me)]
		for i := range me {
			rr[i] = fr[i] - (up[i]+dn[i]+w[i]+e[i]-4*me[i])*inv
		}
	}
	s.mc.work((u.hi - u.lo) * m)
}

// restrictTo transfers the fine residual on level l to the rhs of level
// l+1 by full weighting over 2×2 blocks (one exchange superstep for r).
func (s *solver) restrictTo(l int) {
	fine, coarse := s.levels[l], s.levels[l+1]
	cf, cm := coarse.f, coarse.m
	s.mc.exchange(exch{fidR(l), fine.r, -1})
	coarse.u.zero()
	for R := cf.lo; R < cf.hi; R++ {
		// Coarse column C+1 covers fine columns 2C+1 and 2C+2.
		fr := cf.row(R)[1:][:cm]
		r0 := fine.r.row(2*R - 1)[1:][:2*len(fr)]
		r1 := fine.r.row(2 * R)[1:][:2*len(fr)]
		for C := range fr {
			fr[C] = 0.25 * (r0[2*C] + r0[2*C+1] + r1[2*C] + r1[2*C+1])
		}
	}
	s.mc.work((cf.hi - cf.lo) * cm)
}

// prolongFrom adds the coarse correction on level l+1 into level l's
// solution by bilinear interpolation on the cell-centered hierarchy
// (weights 9/16, 3/16, 3/16, 1/16), preceded by one coarse-to-fine
// exchange superstep. Coarse boundary rows/columns are zero, realizing
// the homogeneous Dirichlet condition of the correction.
func (s *solver) prolongFrom(l int) {
	fine, coarse := s.levels[l], s.levels[l+1]
	fu, cu, cm := fine.u, coarse.u, coarse.m
	s.mc.exchangeToFine(fidU(l+1), cu)
	for r := fu.lo; r < fu.hi; r++ {
		R := (r + 1) / 2
		// The vertical neighbor is the coarse row on the same side of
		// R's center as the fine row: below for odd r, above for even.
		Rn := R + 1
		if r%2 == 1 {
			Rn = R - 1
		}
		// Coarse column C+1 feeds fine columns 2C+1 (west neighbor
		// C) and 2C+2 (east neighbor C+2).
		crow, nrow := cu.row(R), cu.row(Rn)
		me, w, e := crow[1:][:cm], crow[:cm], crow[2:][:cm]
		nme, nw, ne := nrow[1:][:cm], nrow[:cm], nrow[2:][:cm]
		dst := fu.row(r)[1:][:2*len(me)]
		for C := range me {
			dst[2*C] += 0.5625*me[C] + 0.1875*(nme[C]+w[C]) + 0.0625*nw[C]
			dst[2*C+1] += 0.5625*me[C] + 0.1875*(nme[C]+e[C]) + 0.0625*ne[C]
		}
	}
	s.mc.work((fu.hi - fu.lo) * fine.m)
}

// vcycle runs one V-cycle from level l.
func (s *solver) vcycle(l int) {
	if l == len(s.levels)-1 {
		s.smooth(l, s.coarseSweeps)
		return
	}
	s.smooth(l, s.preSmooth)
	s.computeResidual(l)
	s.restrictTo(l)
	s.vcycle(l + 1)
	s.prolongFrom(l)
	s.smooth(l, s.postSmooth)
}

// residualNorm returns the global max-norm of the fine-level residual
// (two supersteps: exchange + all-reduce).
func (s *solver) residualNorm() float64 {
	s.computeResidual(0)
	lv := s.levels[0]
	local := 0.0
	for r := lv.r.lo; r < lv.r.hi; r++ {
		local = maxAbs(local, lv.r.row(r)[1:lv.m+1])
	}
	s.mc.work((lv.r.hi - lv.r.lo) * lv.m)
	return s.mc.maxAll(local)
}

// Solve runs V-cycles until the residual max-norm falls below
// tol·max(|f|∞, 1) or maxCycles is reached; it returns the cycle count.
// The rhs must already be loaded into level 0's f and an initial guess
// into level 0's u.
func (s *solver) Solve() int {
	lv := s.levels[0]
	fmax := 0.0
	for r := lv.f.lo; r < lv.f.hi; r++ {
		fmax = maxAbs(fmax, lv.f.row(r)[1:lv.m+1])
	}
	fmax = s.mc.maxAll(fmax)
	target := s.tol * math.Max(fmax, 1e-300)
	cycles := 0
	for cycles < s.maxCycles {
		if s.residualNorm() <= target {
			break
		}
		s.vcycle(0)
		cycles++
	}
	return cycles
}

// maxAbs folds math.Max(acc, math.Abs(v)) over vs, NaN and ±Inf cases
// included. The common case — |v| below the running maximum — skips the
// call.
func maxAbs(acc float64, vs []float64) float64 {
	for _, v := range vs {
		if a := math.Abs(v); !(a < acc) {
			acc = math.Max(acc, a)
		}
	}
	return acc
}
