package collect

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

func run(t *testing.T, p int, fn func(c *core.Proc)) *core.Stats {
	t.Helper()
	st, err := core.Run(core.Config{P: p, Transport: transport.ShmTransport{}}, fn)
	if err != nil {
		t.Fatalf("Run(p=%d): %v", p, err)
	}
	return st
}

func TestBroadcast(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		for root := 0; root < p; root++ {
			payload := []byte(fmt.Sprintf("hello from %d", root))
			run(t, p, func(c *core.Proc) {
				got := Broadcast(c, root, payload)
				if !bytes.Equal(got, payload) {
					t.Errorf("p=%d root=%d proc %d: got %q", p, root, c.ID(), got)
				}
			})
		}
	}
}

func TestBroadcastTwoPhase(t *testing.T) {
	payloads := [][]byte{
		{},
		[]byte("x"),
		bytes.Repeat([]byte("abcdefg"), 100),
		bytes.Repeat([]byte{7}, 1001), // not divisible by p
	}
	for _, p := range []int{1, 2, 4, 7} {
		for _, payload := range payloads {
			run(t, p, func(c *core.Proc) {
				got := BroadcastTwoPhase(c, 0, payload)
				if !bytes.Equal(got, payload) {
					t.Errorf("p=%d proc %d: got %d bytes, want %d", p, c.ID(), len(got), len(payload))
				}
			})
		}
	}
}

func TestBroadcastTwoPhaseUsesTwoSupersteps(t *testing.T) {
	st := run(t, 4, func(c *core.Proc) {
		BroadcastTwoPhase(c, 0, bytes.Repeat([]byte{1}, 256))
	})
	if st.S() != 2 {
		t.Errorf("S = %d, want 2", st.S())
	}
}

func TestReduceAndAllReduce(t *testing.T) {
	for _, p := range []int{1, 3, 6} {
		run(t, p, func(c *core.Proc) {
			x := float64(c.ID() + 1)
			want := float64(p*(p+1)) / 2
			got := Reduce(c, 0, x, SumFloat)
			if c.ID() == 0 && got != want {
				t.Errorf("p=%d: Reduce = %g, want %g", p, got, want)
			}
			all := AllReduce(c, x, SumFloat)
			if all != want {
				t.Errorf("p=%d proc %d: AllReduce = %g, want %g", p, c.ID(), all, want)
			}
			mx := AllReduce(c, x, MaxFloat)
			if mx != float64(p) {
				t.Errorf("p=%d proc %d: AllReduce max = %g, want %d", p, c.ID(), mx, p)
			}
			mn := AllReduce(c, x, MinFloat)
			if mn != 1 {
				t.Errorf("p=%d proc %d: AllReduce min = %g, want 1", p, c.ID(), mn)
			}
		})
	}
}

func TestAllAndAllOr(t *testing.T) {
	run(t, 4, func(c *core.Proc) {
		if !AllAnd(c, true) {
			t.Errorf("proc %d: AllAnd(all true) = false", c.ID())
		}
		if AllAnd(c, c.ID() != 2) {
			t.Errorf("proc %d: AllAnd(one false) = true", c.ID())
		}
		if AllOr(c, false) {
			t.Errorf("proc %d: AllOr(all false) = true", c.ID())
		}
		if !AllOr(c, c.ID() == 3) {
			t.Errorf("proc %d: AllOr(one true) = false", c.ID())
		}
	})
}

func TestGatherScatter(t *testing.T) {
	const p = 5
	run(t, p, func(c *core.Proc) {
		mine := []byte(fmt.Sprintf("piece-%d", c.ID()))
		got := Gather(c, 2, mine)
		if c.ID() == 2 {
			for i := 0; i < p; i++ {
				if want := fmt.Sprintf("piece-%d", i); string(got[i]) != want {
					t.Errorf("Gather[%d] = %q, want %q", i, got[i], want)
				}
			}
		} else if got != nil {
			t.Errorf("proc %d: Gather returned non-nil", c.ID())
		}
		var pieces [][]byte
		if c.ID() == 1 {
			pieces = make([][]byte, p)
			for i := range pieces {
				pieces[i] = []byte(fmt.Sprintf("scat-%d", i))
			}
		}
		piece := Scatter(c, 1, pieces)
		if want := fmt.Sprintf("scat-%d", c.ID()); string(piece) != want {
			t.Errorf("proc %d: Scatter = %q, want %q", c.ID(), piece, want)
		}
	})
}

func TestAllToAll(t *testing.T) {
	const p = 4
	run(t, p, func(c *core.Proc) {
		out := make([][]byte, p)
		for i := range out {
			out[i] = []byte(fmt.Sprintf("%d->%d", c.ID(), i))
		}
		in := AllToAll(c, out)
		for src := 0; src < p; src++ {
			if want := fmt.Sprintf("%d->%d", src, c.ID()); string(in[src]) != want {
				t.Errorf("proc %d: in[%d] = %q, want %q", c.ID(), src, in[src], want)
			}
		}
	})
}

func TestExclusiveScan(t *testing.T) {
	for _, p := range []int{1, 2, 5} {
		run(t, p, func(c *core.Proc) {
			got := ExclusiveScan(c, c.ID()+1)
			want := c.ID() * (c.ID() + 1) / 2
			if got != want {
				t.Errorf("p=%d proc %d: scan = %d, want %d", p, c.ID(), got, want)
			}
		})
	}
}

func TestCollectiveCosts(t *testing.T) {
	// Broadcast is one superstep; AllReduce is one superstep; the cost
	// documentation in this package should match the measured S.
	st := run(t, 4, func(c *core.Proc) {
		Broadcast(c, 0, []byte("x"))
		AllReduce(c, 1, SumFloat)
		AllToAll(c, make([][]byte, 4))
	})
	if st.S() != 3 {
		t.Errorf("S = %d, want 3 (one per collective)", st.S())
	}
}

func TestScatterPanicsOnBadPieces(t *testing.T) {
	_, err := core.Run(core.Config{P: 2, Transport: transport.SimTransport{}}, func(c *core.Proc) {
		pieces := make([][]byte, 3) // wrong length
		Scatter(c, 0, pieces)
	})
	if err == nil {
		t.Fatal("Scatter with wrong piece count should fail the run")
	}
}

func TestGroupTopology(t *testing.T) {
	for _, tc := range []struct{ p, fanout int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 3}, {16, 4},
	} {
		if got := GroupFanout(tc.p); got != tc.fanout {
			t.Errorf("GroupFanout(%d) = %d, want %d", tc.p, got, tc.fanout)
		}
	}
	// Every rank's leader is a leader of itself, and group members are
	// contiguous.
	for _, p := range []int{1, 2, 3, 5, 7, 8, 9} {
		b := GroupFanout(p)
		for id := 0; id < p; id++ {
			l := GroupLeader(id, b)
			if l < 0 || l > id || GroupLeader(l, b) != l {
				t.Errorf("p=%d: GroupLeader(%d, %d) = %d", p, id, b, l)
			}
			if id-l >= b {
				t.Errorf("p=%d: rank %d is %d past its leader %d (fanout %d)", p, id, id-l, l, b)
			}
		}
	}
}

func TestGatherTwoPhase(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 9} {
		for _, root := range []int{0, p - 1} {
			st := run(t, p, func(c *core.Proc) {
				payload := []byte(fmt.Sprintf("from-%d", c.ID()))
				if c.ID()%3 == 2 {
					payload = nil // empty payloads survive the relay
				}
				got := GatherTwoPhase(c, root, payload)
				if c.ID() != root {
					if got != nil {
						t.Errorf("p=%d root=%d: non-root %d got %v", p, root, c.ID(), got)
					}
					return
				}
				if len(got) != p {
					t.Errorf("p=%d root=%d: %d entries", p, root, len(got))
					return
				}
				for src, b := range got {
					want := fmt.Sprintf("from-%d", src)
					if src%3 == 2 {
						want = ""
					}
					if string(b) != want {
						t.Errorf("p=%d root=%d src=%d: got %q, want %q", p, root, src, b, want)
					}
				}
			})
			if st.S() != 2 {
				t.Errorf("p=%d root=%d: S = %d, want 2", p, root, st.S())
			}
		}
	}
}

// TestAllReduceAllocatesNothing requires AllReduce and AllReduceInt to
// make no allocation per call: ocean calls AllReduce once per V-cycle,
// so anything they allocate is paid every few supersteps.
func TestAllReduceAllocatesNothing(t *testing.T) {
	measure := func(rounds int) float64 {
		body := func() {
			run(t, 2, func(c *core.Proc) {
				for i := 0; i < rounds; i++ {
					if got := AllReduce(c, float64(c.ID()), MaxFloat); got != 1 {
						t.Errorf("AllReduce max = %g, want 1", got)
					}
					if got := AllReduceInt(c, -c.ID(), func(a, b int) int { return a + b }); got != -1 {
						t.Errorf("AllReduceInt sum = %d, want -1", got)
					}
				}
			})
		}
		body() // warm the transport pools before measuring
		return testing.AllocsPerRun(5, body)
	}
	few, many := measure(50), measure(150)
	if perCall := (many - few) / 200; perCall >= 0.1 {
		t.Errorf("%.2f allocs per AllReduce/AllReduceInt call (%.0f allocs for 50 rounds, %.0f for 150), want 0",
			perCall, few, many)
	}
}
