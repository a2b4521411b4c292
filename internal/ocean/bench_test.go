package ocean

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

func BenchmarkSmooth(b *testing.B) {
	sol := newSolver(seqMachine{}, 256, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol.smooth(0, 1)
	}
	b.ReportMetric(256*256*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

func BenchmarkVCycle(b *testing.B) {
	sol := newSolver(seqMachine{}, 256, 1, 0)
	lv := sol.levels[0]
	for r := 1; r <= 256; r++ {
		fr := lv.f.row(r)
		for c := 1; c <= 256; c++ {
			fr[c] = 1
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol.vcycle(0)
	}
}

func BenchmarkSequentialStep(b *testing.B) {
	for _, size := range []int{66, 130} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Sequential(Config{Size: size, Steps: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := Parallel(core.Config{P: 4, Transport: transport.ShmTransport{}}, Config{Size: 66, Steps: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
