package ocean

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

func TestCheckGrid(t *testing.T) {
	for _, size := range []int{6, 10, 18, 66, 130, 258, 514} {
		if _, err := checkGrid(size); err != nil {
			t.Errorf("size %d should be valid: %v", size, err)
		}
	}
	for _, size := range []int{0, 5, 7, 65, 100} {
		if _, err := checkGrid(size); err == nil {
			t.Errorf("size %d should be rejected", size)
		}
	}
}

func TestRowRangePartition(t *testing.T) {
	for _, m := range []int{4, 8, 64, 127, 128} {
		for _, p := range []int{1, 2, 3, 4, 8, 16, 31} {
			covered := 0
			for q := 0; q < p; q++ {
				lo, hi := rowRange(m, p, q)
				covered += hi - lo
				for r := lo; r < hi; r++ {
					if got := ownerOfRow(m, p, r); got != q {
						t.Fatalf("m=%d p=%d: ownerOfRow(%d) = %d, want %d", m, p, r, got, q)
					}
				}
			}
			if covered != m {
				t.Fatalf("m=%d p=%d: rows covered %d", m, p, covered)
			}
		}
	}
}

func TestSolverSolvesPoisson(t *testing.T) {
	// Manufactured solution: u = sin(πx)sin(πy) has ∇²u = -2π²u.
	// Discretizing f from the continuous operator recovers u up to
	// discretization error O(h²).
	const m = 64
	sol := newSolver(seqMachine{}, m, 1, 0)
	sol.tol = 1e-8
	sol.maxCycles = 60
	h := 1 / float64(m+1)
	lv := sol.levels[0]
	for r := 1; r <= m; r++ {
		fr := lv.f.row(r)
		for c := 1; c <= m; c++ {
			fr[c] = -2 * math.Pi * math.Pi * sinPi(float64(r)*h) * sinPi(float64(c)*h)
		}
	}
	cycles, err := sol.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 || cycles >= sol.maxCycles {
		t.Fatalf("solver did not converge properly: %d cycles", cycles)
	}
	var worst float64
	for r := 1; r <= m; r++ {
		ur := lv.u.row(r)
		for c := 1; c <= m; c++ {
			want := sinPi(float64(r)*h) * sinPi(float64(c)*h)
			worst = math.Max(worst, math.Abs(ur[c]-want))
		}
	}
	if worst > 5e-3 { // h² ≈ 2.4e-4 scaled by π² ≈ 2e-3
		t.Errorf("worst error vs manufactured solution: %g", worst)
	}
}

// normLog is a sequential machine that records every max all-reduce.
// A solve reduces |f|∞ first, then the residual norm before each
// V-cycle and once after the last.
type normLog struct {
	seqMachine
	vals []float64
}

func (n *normLog) maxAll(x float64) float64 {
	n.vals = append(n.vals, x)
	return x
}

// TestSolveConverges requires every solve of a sequential run to meet
// its target within a few V-cycles at each of the paper's sizes, with
// the residual falling at least 4× per cycle, and checks the returned
// ψ against the target with a residual loop of its own.
func TestSolveConverges(t *testing.T) {
	const maxPaperCycles, minFactor = 8, 4
	for _, size := range []int{34, 66, 130, 258, 514} {
		cfg := Config{Size: size, Steps: 2}
		log := &normLog{}
		sim, err := newOceanSim(log, cfg, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.run(); err != nil {
			t.Errorf("size %d: %v", size, err)
			continue
		}
		norms := log.vals
		for step, cycles := range sim.Cycles {
			if cycles > maxPaperCycles {
				t.Errorf("size %d step %d: %d V-cycles, want at most %d", size, step, cycles, maxPaperCycles)
			}
			if len(norms) < cycles+2 {
				t.Errorf("size %d step %d: solve stopped after %d V-cycles without a final residual", size, step, cycles)
				break
			}
			target := cfg.tol() * norms[0]
			res := norms[1 : cycles+2]
			norms = norms[cycles+2:]
			if last := res[len(res)-1]; !(last <= target) {
				t.Errorf("size %d step %d: residual %g after %d V-cycles, target %g", size, step, last, cycles, target)
			}
			for i := 1; i < len(res); i++ {
				if !(res[i]*minFactor <= res[i-1]) {
					t.Errorf("size %d step %d: V-cycle %d cut the residual %g → %g, less than %d×",
						size, step, i, res[i-1], res[i], minFactor)
				}
			}
		}
		// The last step's right-hand side is still loaded on level 0.
		m, f, psi := sim.m, sim.sol.levels[0].f, sim.psi
		inv := float64((m + 1) * (m + 1))
		worst, fmax := 0.0, 0.0
		for r := 1; r <= m; r++ {
			for c := 1; c <= m; c++ {
				lap := (psi.row(r - 1)[c] + psi.row(r + 1)[c] + psi.row(r)[c-1] + psi.row(r)[c+1] - 4*psi.row(r)[c]) * inv
				worst = math.Max(worst, math.Abs(f.row(r)[c]-lap))
				fmax = math.Max(fmax, math.Abs(f.row(r)[c]))
			}
		}
		if target := cfg.tol() * fmax; !(worst <= target) {
			t.Errorf("size %d: returned ψ has residual %g, target %g", size, worst, target)
		}
		t.Logf("size %d: V-cycles %v, final residual %.3g, |f|∞ %.3g", size, sim.Cycles, worst, fmax)
	}
}

// TestUnconvergedSolveIsError requires a solve that cannot reach its
// target to fail the run, naming the timestep, the cycle count, the
// residual and the target, with the same message from Sequential,
// Parallel and ParallelRecoverable.
func TestUnconvergedSolveIsError(t *testing.T) {
	cfg := Config{Size: 18, Steps: 2, Tol: 1e-300}
	_, _, want := Sequential(cfg)
	if want == nil {
		t.Fatal("Sequential: unconverged solve returned no error")
	}
	for _, sub := range []string{"timestep 0", "25 V-cycles", "residual", "target"} {
		if !strings.Contains(want.Error(), sub) {
			t.Errorf("Sequential error %q does not name %q", want, sub)
		}
	}
	ccfg := core.Config{P: 3, Transport: transport.ShmTransport{}}
	if _, _, err := Parallel(ccfg, cfg); err == nil || err.Error() != want.Error() {
		t.Errorf("Parallel: error %v, want %v", err, want)
	}
	if _, _, err := ParallelRecoverable(ccfg, cfg); err == nil || err.Error() != want.Error() {
		t.Errorf("ParallelRecoverable: error %v, want %v", err, want)
	}
}

func TestSequentialProducesEddies(t *testing.T) {
	f, cycles, err := Sequential(Config{Size: 34})
	if err != nil {
		t.Fatal(err)
	}
	if len(cycles) != 2 {
		t.Fatalf("expected 2 steps, got %d", len(cycles))
	}
	var maxAbs float64
	for _, v := range f.Psi {
		maxAbs = math.Max(maxAbs, math.Abs(v))
	}
	if maxAbs == 0 {
		t.Fatal("stream function stayed identically zero; wind forcing broken")
	}
	// Boundary must remain fixed at zero.
	m := f.M
	for i := 0; i <= m+1; i++ {
		if f.At(0, i) != 0 || f.At(m+1, i) != 0 || f.At(i, 0) != 0 || f.At(i, m+1) != 0 {
			t.Fatal("boundary violated")
		}
	}
}

func TestParallelBitIdenticalToSequential(t *testing.T) {
	cfg := Config{Size: 34, Steps: 2}
	want, _, err := Sequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 4, 8} {
		got, st, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, cfg)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i := range want.Psi {
			if got.Psi[i] != want.Psi[i] {
				t.Fatalf("p=%d: Psi[%d] = %g, want %g (must be bit-identical)", p, i, got.Psi[i], want.Psi[i])
			}
		}
		if st.S() < 10 {
			t.Errorf("p=%d: implausibly few supersteps: %d", p, st.S())
		}
	}
}

func TestSuperstepCountIndependentOfP(t *testing.T) {
	// The solver's schedule is data-dependent but identical across
	// process counts, so S must not vary with p (the paper reports one
	// S per problem size).
	cfg := Config{Size: 34, Steps: 1}
	var s1 int
	for i, p := range []int{1, 2, 4} {
		_, st, err := Parallel(core.Config{P: p, Transport: transport.ShmTransport{}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			s1 = st.S()
		} else if st.S() != s1 {
			t.Errorf("S varies with p: %d vs %d", st.S(), s1)
		}
	}
}

func TestAcrossTransports(t *testing.T) {
	cfg := Config{Size: 18, Steps: 1}
	want, _, err := Sequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []transport.Transport{
		transport.XchgTransport{}, transport.TCPTransport{}, transport.SimTransport{},
	} {
		got, _, err := Parallel(core.Config{P: 2, Transport: tr}, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		for i := range want.Psi {
			if got.Psi[i] != want.Psi[i] {
				t.Fatalf("%s: field mismatch at %d", tr.Name(), i)
			}
		}
	}
}

func TestGhostTrafficScalesWithPerimeter(t *testing.T) {
	// H should grow roughly linearly in the grid side (row exchanges),
	// not quadratically (full grid).
	cfg := core.Config{P: 4, Transport: transport.ShmTransport{}}
	_, stSmall, err := Parallel(cfg, Config{Size: 18, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, stBig, err := Parallel(cfg, Config{Size: 66, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	// H grows with supersteps (levels × cycles) too; the perimeter
	// property is about the h-relation *per superstep*: average h must
	// scale like the row length (4×), far below area scaling (16×).
	hSmall := float64(stSmall.H()) / float64(stSmall.S())
	hBig := float64(stBig.H()) / float64(stBig.S())
	if ratio := hBig / hSmall; ratio > 8 {
		t.Errorf("per-superstep h grew %0.1f× for a 4× side increase; ghost exchange is not perimeter-bound", ratio)
	}
}

func TestParallelRejectsBadSize(t *testing.T) {
	if _, _, err := Parallel(core.Config{P: 2, Transport: transport.ShmTransport{}}, Config{Size: 50}); err == nil {
		t.Fatal("invalid size accepted")
	}
	if _, _, err := Sequential(Config{Size: 51}); err == nil {
		t.Fatal("invalid size accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	if c.steps() != 2 || c.dt() != 0.05 || c.wind() != 1 || c.friction() != 0.02 || c.tol() != 5e-3 {
		t.Error("defaults wrong")
	}
}

func TestMaxAbsMatchesMathMax(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, -3, inf, -inf, nan, -nan, math.SmallestNonzeroFloat64}
	for _, acc := range vals {
		for _, v := range vals {
			want := math.Max(acc, math.Abs(v))
			if got := maxAbs(acc, []float64{v}); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("maxAbs(%v, [%v]) = %v (%#x), math.Max gives %v (%#x)",
					acc, v, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	// Folds agree too: a NaN wins and then stays, until a +Inf.
	for _, vs := range [][]float64{{1, nan, 5, -7}, {-2, nan, inf, 3}, {3, -4, 0, 4}} {
		want := 0.0
		for _, v := range vs {
			want = math.Max(want, math.Abs(v))
		}
		if got := maxAbs(0, vs); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("maxAbs(0, %v) = %v, math.Max fold gives %v", vs, got, want)
		}
	}
}
