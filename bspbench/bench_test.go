package main

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// The decorator must be transparent: over ocean-tcp's transport it
// leaves S, H and the stream function bit-identical to an undecorated
// run, and it records one Sync span per rank per superstep.
func TestDecoratorTransparentOnOceanTCP(t *testing.T) {
	w, err := workloadByName("ocean-tcp")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := transport.New(w.transport)
	if err != nil {
		t.Fatal(err)
	}
	a := &oceanApp{}
	a.generate(7)
	plain, err := a.run(tr)
	if err != nil {
		t.Fatal(err)
	}
	led := newLedger(1, w.timeSends)
	traced, err := a.run(tracedTransport{inner: tr, l: led})
	if err != nil {
		t.Fatal(err)
	}
	if traced.st.S() != plain.st.S() || traced.st.H() != plain.st.H() {
		t.Fatalf("traced S=%d H=%d, untraced S=%d H=%d", traced.st.S(), traced.st.H(), plain.st.S(), plain.st.H())
	}
	for i, v := range plain.psi.Psi {
		if math.Float64bits(v) != math.Float64bits(traced.psi.Psi[i]) {
			t.Fatalf("psi[%d]: traced %v, untraced %v", i, traced.psi.Psi[i], v)
		}
	}
	if len(led.ranks) != nproc {
		t.Fatalf("ledger has %d ranks, want %d", len(led.ranks), nproc)
	}
	for _, r := range led.ranks {
		if len(r.Steps) != plain.st.S() {
			t.Errorf("rank %d: %d Sync spans, want S=%d", r.Rank, len(r.Steps), plain.st.S())
		}
	}
}

func hrelDelivery(seed uint64, src, step, h int) []core.Pkt {
	pkts := make([]core.Pkt, h)
	for i := range pkts {
		hrelPacket(&pkts[i], seed, src, step, i)
	}
	rand.New(rand.NewSource(1)).Shuffle(h, func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
	return pkts
}

// The hrel oracle accepts an intact delivery in any order and rejects a
// dropped, a duplicated and a corrupted packet.
func TestHrelOracleRejectsBadDelivery(t *testing.T) {
	const seed, src, step, h = 42, 1, 17, 300
	seen := make([]uint64, hrelMaxH/64)
	if err := hrelCheck(hrelDelivery(seed, src, step, h), seed, src, step, h, seen); err != nil {
		t.Fatalf("intact delivery rejected: %v", err)
	}
	cases := map[string]func([]core.Pkt) []core.Pkt{
		"dropped":    func(p []core.Pkt) []core.Pkt { return p[1:] },
		"duplicated": func(p []core.Pkt) []core.Pkt { p[5] = p[6]; return p },
		"extra":      func(p []core.Pkt) []core.Pkt { return append(p, p[0]) },
		"corrupted":  func(p []core.Pkt) []core.Pkt { p[9][12] ^= 0x40; return p },
		"wrong step": func(p []core.Pkt) []core.Pkt { hrelPacket(&p[3], seed, src, step+1, 3); return p },
	}
	for name, mutate := range cases {
		pkts := mutate(hrelDelivery(seed, src, step, h))
		if err := hrelCheck(pkts, seed, src, step, h, seen); err == nil {
			t.Errorf("%s packet accepted", name)
		}
	}
}

func TestHrelScheduleLogUniform(t *testing.T) {
	a, b := hrelSchedule(3), hrelSchedule(3)
	lo, hi := 0, 0
	for i, h := range a {
		if h != b[i] {
			t.Fatal("schedule is not a function of the seed")
		}
		if h < 1 || h > hrelMaxH {
			t.Fatalf("h=%d outside [1, %d]", h, hrelMaxH)
		}
		if h < 256 { // below the geometric midpoint of [1, 65536]
			lo++
		} else {
			hi++
		}
	}
	if len(a) != hrelSteps || lo != hi {
		t.Fatalf("%d supersteps, %d below and %d above h=256; want %d split evenly", len(a), lo, hi, hrelSteps)
	}
}

// The fit recovers a known (g, L) from exact pairs and, within a few
// percent, from noisy ones.
func TestFitRecoversGL(t *testing.T) {
	const g, l = 0.045, 95.0
	rng := rand.New(rand.NewSource(5))
	var h, exact, noisy []float64
	for _, x := range hrelSchedule(9) {
		h = append(h, float64(x))
		exact = append(exact, g*float64(x)+l)
		noisy = append(noisy, (g*float64(x)+l)*(1+0.05*(rng.Float64()-0.5)))
	}
	if p := fitGL(h, exact); math.Abs(p.G-g) > 1e-12 || math.Abs(p.L-l) > 1e-6 {
		t.Errorf("exact pairs: fit g=%v L=%v, want %v %v", p.G, p.L, g, l)
	}
	if p := fitGL(h, noisy); math.Abs(p.G-g)/g > 0.02 || math.Abs(p.L-l)/l > 0.1 {
		t.Errorf("noisy pairs: fit g=%v L=%v, want %v %v", p.G, p.L, g, l)
	}
	// No spread in h: the slope is unidentifiable.
	if p := fitGL([]float64{45, 45, 45}, []float64{10, 12, 14}); p.G != 0 || p.L != 12 {
		t.Errorf("constant h: fit g=%v L=%v, want 0 and the mean 12", p.G, p.L)
	}
}

// The tail is the highest percentile with at least 10 samples beyond it.
func TestTailHasTenBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 40, 97} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i*37)%n) + 1 // a permutation of 1..n
		}
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail %v, want 10", n, beyond, v)
		}
		if want := 100 * float64(n-10) / float64(n); math.Abs(pct-want) > 1e-9 {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if _, _, ok := tail(make([]float64, 10)); ok {
		t.Error("10 samples cannot have 10 beyond any percentile")
	}
}

// reconcile's critical-path arithmetic on a hand-built two-rank ledger.
func TestReconcileCriticalRank(t *testing.T) {
	l := &ledger{transport: "tcp", openNs: 5, ranks: []*rankLedger{
		{Rank: 0, Begin: 10, Close: 95, Steps: []stepSpan{
			{Arrive: 30, Release: 50, Sends: 2, RemoteSends: 2, RemoteBytes: 32, Bytes: 32, Frames: 1},
			{Arrive: 70, Release: 80},
		}},
		{Rank: 1, Begin: 10, Close: 90, Steps: []stepSpan{
			{Arrive: 40, Release: 50, Sends: 1, RemoteSends: 1, RemoteBytes: 16, Bytes: 16, Frames: 2},
			{Arrive: 60, Release: 80},
		}},
	}}
	rc := l.reconcile([]int{2, 0})
	// Step 0: rank 1 arrives last (40), exchange 10, waits 10; step 1:
	// rank 0 arrives last (70), exchange 10, waits 10.
	if rc.exchange != 20 || rc.wait != 20 || rc.sync != 40 {
		t.Errorf("exchange %d wait %d sync %d, want 20 20 40", rc.exchange, rc.wait, rc.sync)
	}
	// open 5 + step 0 on rank 1 (10→50) + step 1 on rank 0 (50→80) +
	// the slowest trailing segment (80→95).
	if rc.covered != 5+40+30+15 {
		t.Errorf("covered %d, want 90", rc.covered)
	}
	if rc.sends != 3 || rc.bytes != 48 || rc.frames != 3 {
		t.Errorf("sends %d bytes %d frames %d, want 3 48 3", rc.sends, rc.bytes, rc.frames)
	}
	// 48 payload + 3 frame prefixes + one 8-byte batch header per rank
	// per superstep.
	if want := 48 + 3*frameHdr + 4*tcpBatchHdr; rc.wireBytes != want {
		t.Errorf("wire bytes %d, want %d", rc.wireBytes, want)
	}
}
