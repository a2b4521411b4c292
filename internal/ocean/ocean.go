package ocean

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Config holds the simulation parameters.
type Config struct {
	// Size is the paper's grid size n+2 (66, 130, 258, 514): interior
	// n must be a power of two.
	Size int
	// Steps is the number of timesteps. 0 means 2.
	Steps int
	// DT is the timestep. 0 means 0.05.
	DT float64
	// Wind is the wind-stress curl amplitude. 0 means 1.
	Wind float64
	// Friction is the bottom-friction coefficient. 0 means 0.02.
	Friction float64
	// Tol is the solver's relative residual tolerance. 0 means 5e-3.
	Tol float64
}

func (c Config) steps() int {
	if c.Steps == 0 {
		return 2
	}
	return c.Steps
}

func (c Config) dt() float64 {
	if c.DT == 0 {
		return 0.05
	}
	return c.DT
}

func (c Config) wind() float64 {
	if c.Wind == 0 {
		return 1
	}
	return c.Wind
}

func (c Config) friction() float64 {
	if c.Friction == 0 {
		return 0.02
	}
	return c.Friction
}

func (c Config) tol() float64 {
	if c.Tol == 0 {
		return 5e-3
	}
	return c.Tol
}

// Fields is the assembled result: the stream function on the full
// (m+2)×(m+2) grid, row-major.
type Fields struct {
	M   int
	Psi []float64
}

// At returns ψ(r, c).
func (f *Fields) At(r, c int) float64 { return f.Psi[r*(f.M+2)+c] }

// oceanSim is one process's simulation state.
type oceanSim struct {
	mc        machine
	sol       *solver
	psi, vort *slab
	cfg       Config
	m         int
	// sinX[i] is sin(π·x) at column i+1, x = (i+1)·h: the forcing's
	// column factor, computed once.
	sinX []float64
	// Cycles records the V-cycle count of each solve.
	Cycles []int

	// Checkpoint/restart state (see recover.go): start is the timestep
	// the run (re)starts from; atBoundary is true only during the
	// boundary barrier superstep at the top of each timestep, gating
	// the Save hook; saveStep is the timestep a boundary snapshot
	// resumes at.
	start      int
	atBoundary bool
	saveStep   int
}

func newOceanSim(mc machine, cfg Config, p, q int) (*oceanSim, error) {
	m, err := checkGrid(cfg.Size)
	if err != nil {
		return nil, err
	}
	s := &oceanSim{mc: mc, cfg: cfg, m: m, sinX: make([]float64, m)}
	h := 1 / float64(m+1)
	for i := range s.sinX {
		s.sinX[i] = sinPi(float64(i+1) * h)
	}
	s.sol = newSolver(mc, m, p, q)
	s.sol.tol = cfg.tol()
	lo, hi := rowRange(m, p, q)
	s.psi = newSlab(m, lo, hi)
	s.vort = newSlab(m, lo, hi)
	if bm, ok := mc.(*bspMachine); ok {
		bm.register(s.fidPsi(), s.psi)
		bm.register(s.fidVort(), s.vort)
	}
	return s, nil
}

func (s *oceanSim) fidPsi() int  { return 3 * len(s.sol.levels) }
func (s *oceanSim) fidVort() int { return 3*len(s.sol.levels) + 1 }

// step advances the simulation through timestep i:
//
//	vort = ∇²ψ                                  (ghost exchange for ψ)
//	rhs  = vort + dt·(wind − J(ψ, vort) − μ·vort)  (exchange for vort)
//	solve ∇²ψ' = rhs by multigrid, warm-started from ψ
//
// It returns an error naming the timestep if the solve does not
// converge.
func (s *oceanSim) step(i int) error {
	m := s.m
	h := 1 / float64(m+1)
	h2 := h * h
	psi, vort := s.psi, s.vort
	s.mc.exchange(exch{s.fidPsi(), psi, -1})
	for r := psi.lo; r < psi.hi; r++ {
		// Row windows as in the solver kernels (solver.go): index i is
		// column i+1.
		row := psi.row(r)
		me := row[1 : m+1]
		w, e := row[:len(me)], row[2:][:len(me)]
		up, dn := psi.row(r - 1)[1:][:len(me)], psi.row(r + 1)[1:][:len(me)]
		vr := vort.row(r)[1:][:len(me)]
		for i := range me {
			vr[i] = (up[i] + dn[i] + w[i] + e[i] - 4*me[i]) / h2
		}
	}
	s.mc.work((psi.hi - psi.lo) * m)
	s.mc.exchange(exch{s.fidVort(), vort, -1})
	lv0 := s.sol.levels[0]
	dt, a, mu := s.cfg.dt(), s.cfg.wind(), s.cfg.friction()
	sinX := s.sinX
	for r := psi.lo; r < psi.hi; r++ {
		prow, vrow := psi.row(r), vort.row(r)
		pMe := prow[1 : m+1]
		n := len(pMe)
		pW, pE := prow[:n], prow[2:][:n]
		pUp, pDn := psi.row(r - 1)[1:][:n], psi.row(r + 1)[1:][:n]
		vMe, vW, vE := vrow[1:][:n], vrow[:n], vrow[2:][:n]
		vUp, vDn := vort.row(r - 1)[1:][:n], vort.row(r + 1)[1:][:n]
		fr, ur, sx := lv0.f.row(r)[1:][:n], lv0.u.row(r)[1:][:n], sinX[:n]
		sy := sinPi(float64(r) * h)
		for i := range pMe {
			// Arakawa-style central-difference Jacobian J(ψ, ζ).
			px := (pE[i] - pW[i]) / (2 * h)
			py := (pDn[i] - pUp[i]) / (2 * h)
			vx := (vE[i] - vW[i]) / (2 * h)
			vy := (vDn[i] - vUp[i]) / (2 * h)
			jac := px*vy - py*vx
			wind := a * sx[i] * sy
			fr[i] = vMe[i] + dt*(wind-jac-mu*vMe[i])
			ur[i] = pMe[i] // warm start from the current stream function
		}
	}
	s.mc.work((psi.hi - psi.lo) * m * 2) // Jacobian + forcing pass
	cycles, err := s.sol.Solve()
	if err != nil {
		return fmt.Errorf("ocean: timestep %d: %w", i, err)
	}
	s.Cycles = append(s.Cycles, cycles)
	for r := psi.lo; r < psi.hi; r++ {
		copy(psi.row(r), lv0.u.row(r))
	}
	return nil
}

func (s *oceanSim) run() error {
	for i := 0; i < s.cfg.steps(); i++ {
		if err := s.step(i); err != nil {
			return err
		}
	}
	return nil
}

// firstErr returns the first non-nil error of a parallel run's ranks.
// An unconverged solve fails every rank at the same timestep.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sequential runs the simulation on one processor (no BSP machinery) and
// returns the final stream function and the V-cycle count per step. A
// solve that does not converge is an error.
func Sequential(cfg Config) (*Fields, []int, error) {
	sim, err := newOceanSim(seqMachine{}, cfg, 1, 0)
	if err != nil {
		return nil, nil, err
	}
	if err := sim.run(); err != nil {
		return nil, nil, err
	}
	return assemble([]*oceanSim{sim}), sim.Cycles, nil
}

// Parallel runs the BSP simulation and returns the assembled stream
// function, which is bit-identical to Sequential's at every process
// count, plus the run statistics. A solve that does not converge is an
// error, as in Sequential.
func Parallel(ccfg core.Config, cfg Config) (*Fields, *core.Stats, error) {
	if _, err := checkGrid(cfg.Size); err != nil {
		return nil, nil, err
	}
	sims := make([]*oceanSim, ccfg.P)
	errs := make([]error, ccfg.P)
	st, err := core.Run(ccfg, func(c *core.Proc) {
		sim, err := newOceanSim(newBSPMachine(c), cfg, c.P(), c.ID())
		if err != nil {
			panic(err)
		}
		sims[c.ID()] = sim
		errs[c.ID()] = sim.run()
	})
	if err == nil {
		err = firstErr(errs)
	}
	if err != nil {
		return nil, nil, err
	}
	return assemble(sims), st, nil
}

// assemble stitches the owned rows of every process into a full grid.
// On a cluster member only the locally-hosted rank's sim exists (the
// rest stay nil); its rows are filled and the remote ranks' rows are
// left zero — each process holds exactly its own partition.
func assemble(sims []*oceanSim) *Fields {
	m := -1
	for _, s := range sims {
		if s != nil {
			m = s.m
			break
		}
	}
	if m < 0 {
		return &Fields{}
	}
	f := &Fields{M: m, Psi: make([]float64, (m+2)*(m+2))}
	for _, s := range sims {
		if s == nil {
			continue
		}
		for r := s.psi.lo; r < s.psi.hi; r++ {
			copy(f.Psi[r*(m+2):(r+1)*(m+2)], s.psi.row(r))
		}
	}
	return f
}

// sinPi(x) = sin(πx), kept as a helper so the forcing reads clearly at
// the call site.
func sinPi(x float64) float64 { return math.Sin(math.Pi * x) }
