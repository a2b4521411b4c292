package ocean

import (
	"math"
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
	cycles := sol.Solve()
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
