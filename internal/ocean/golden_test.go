package ocean

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// psiDigest returns the first 8 bytes of SHA-256 over the little-endian
// IEEE-754 bits of every ψ value, in hex.
func psiDigest(f *Fields) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range f.Psi {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestGoldenNumerics pins the computed stream function bit for bit.
// TestParallelBitIdenticalToSequential cannot catch a drift in a kernel,
// since both of its sides run the same kernel; these digests can. Any
// rewrite of the stencil loops must keep every expression and its
// evaluation order (no reassociation, reciprocal multiply or FMA), so
// the digests never change.
func TestGoldenNumerics(t *testing.T) {
	for _, tc := range []struct {
		cfg    Config
		digest string
		cycles []int
	}{
		{Config{Size: 66, Steps: 3}, "5c4ddad2bbf437cd", []int{10, 9, 9}},
		{Config{Size: 130, Steps: 2, Wind: 1.1}, "fc7fa96b7902314e", []int{21, 20}},
	} {
		seq, cycles, err := Sequential(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := psiDigest(seq); got != tc.digest {
			t.Errorf("Sequential(%+v): psi digest %s, want %s", tc.cfg, got, tc.digest)
		}
		if !slices.Equal(cycles, tc.cycles) {
			t.Errorf("Sequential(%+v): V-cycles %v, want %v", tc.cfg, cycles, tc.cycles)
		}
		par, _, err := Parallel(core.Config{P: 2, Transport: transport.TCPTransport{}}, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := psiDigest(par); got != tc.digest {
			t.Errorf("Parallel(tcp, p=2, %+v): psi digest %s, want %s", tc.cfg, got, tc.digest)
		}
	}
}
