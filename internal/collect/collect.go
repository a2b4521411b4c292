// Package collect provides collective operations built exclusively from
// the three Green BSP primitives (Send/Recv/Sync).
//
// The paper argues (§1.3) that, unlike PVM/MPI, the BSP model "assumes a
// very small set of basic functions and (at least in theory) requires any
// other operations to be implemented on top of these functions"; this
// package is that layer. Section 4 names broadcast as the kind of simple
// subroutine whose cost the model predicts well, and the collectives
// benchmark (DESIGN.md E2) exercises exactly that claim.
//
// Every collective documents its BSP cost as (h, s): the h-relation units
// and supersteps it consumes. All collectives must be called collectively
// — by every process in the same superstep.
package collect

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/wire"
)

// clone copies a received view out of the transport's receive buffer.
// Recv views are only valid until the caller's next Sync (see
// core.Proc.Recv); collectives return durable data, so anything handed
// back to the caller is copied first.
func clone(b []byte) []byte {
	return append([]byte(nil), b...)
}

// Broadcast distributes data from root to all processes and returns it.
// Cost: h = (p-1)·|data| at the root, s = 1.
func Broadcast(c *core.Proc, root int, data []byte) []byte {
	if c.ID() == root {
		for i := 0; i < c.P(); i++ {
			if i != root {
				c.Send(i, data)
			}
		}
	}
	c.Sync()
	if c.ID() == root {
		return data
	}
	msg, ok := c.Recv()
	if !ok {
		panic("collect: Broadcast received nothing")
	}
	return clone(msg)
}

// BroadcastTwoPhase distributes data from root in two supersteps:
// scatter p equal pieces, then all-gather them. Cost: h ≈ 2·|data| per
// process, s = 2 — the classic BSP optimization of the naive broadcast
// for large payloads.
func BroadcastTwoPhase(c *core.Proc, root int, data []byte) []byte {
	p := c.P()
	if p == 1 {
		c.Sync()
		c.Sync()
		return data
	}
	var size int
	// Phase 1: root scatters pieces; the total length travels with each
	// piece so receivers can size their reassembly buffers.
	if c.ID() == root {
		size = len(data)
		chunk := (size + p - 1) / p
		for i := 0; i < p; i++ {
			if i == root {
				continue
			}
			lo := min(i*chunk, size)
			hi := min(lo+chunk, size)
			w := wire.NewWriter(16 + hi - lo)
			w.Int(size)
			w.Int(lo)
			w.Raw(data[lo:hi])
			c.Send(i, w.Bytes())
		}
	}
	c.Sync()
	// Phase 2: every process forwards its piece to everyone else.
	var myPiece []byte
	var myLo int
	if c.ID() == root {
		chunk := (len(data) + p - 1) / p
		myLo = min(root*chunk, len(data))
		myPiece = data[myLo:min(myLo+chunk, len(data))]
		size = len(data)
	} else {
		msg, ok := c.Recv()
		if !ok {
			panic("collect: BroadcastTwoPhase received no piece")
		}
		r := wire.NewReader(msg)
		size = r.Int()
		myLo = r.Int()
		// myPiece is reused after the phase-2 Sync, past the view's
		// validity window, so it must be copied out here.
		myPiece = clone(r.Raw(r.Remaining()))
	}
	w := wire.NewWriter(16 + len(myPiece))
	w.Int(myLo)
	w.Raw(myPiece)
	for i := 0; i < p; i++ {
		if i != c.ID() {
			c.Send(i, w.Bytes())
		}
	}
	c.Sync()
	out := make([]byte, size)
	copy(out[myLo:], myPiece)
	for {
		msg, ok := c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		lo := r.Int()
		piece := r.Raw(r.Remaining())
		copy(out[lo:], piece)
	}
	return out
}

// Reduce combines one float64 per process at root with op and returns
// the result at root (other processes receive 0). Cost: h = p-1 at the
// root, s = 1.
func Reduce(c *core.Proc, root int, x float64, op func(a, b float64) float64) float64 {
	w := wire.NewWriter(8)
	w.Float64(x)
	if c.ID() != root {
		c.Send(root, w.Bytes())
	}
	c.Sync()
	if c.ID() != root {
		return 0
	}
	acc := x
	for {
		msg, ok := c.Recv()
		if !ok {
			return acc
		}
		acc = op(acc, wire.NewReader(msg).Float64())
	}
}

// AllReduce combines one float64 per process with op and returns the
// result on every process. op must be commutative and associative.
// Cost: h = p-1, s = 1.
func AllReduce(c *core.Proc, x float64, op func(a, b float64) float64) float64 {
	sendWord(c, math.Float64bits(x))
	c.Sync()
	acc := x
	for {
		msg, ok := c.Recv()
		if !ok {
			return acc
		}
		acc = op(acc, wire.NewReader(msg).Float64())
	}
}

// AllReduceInt is AllReduce for int values.
func AllReduceInt(c *core.Proc, x int, op func(a, b int) int) int {
	sendWord(c, uint64(x))
	c.Sync()
	acc := x
	for {
		msg, ok := c.Recv()
		if !ok {
			return acc
		}
		acc = op(acc, wire.NewReader(msg).Int())
	}
}

// sendWord sends v to every other process without allocating.
func sendWord(c *core.Proc, v uint64) {
	for i := 0; i < c.P(); i++ {
		if i != c.ID() {
			c.SendWord(i, v)
		}
	}
}

// AllAnd returns the conjunction of every process's flag — the global
// termination-detection idiom used by the shortest-paths applications.
// Cost: h = p-1, s = 1.
func AllAnd(c *core.Proc, flag bool) bool {
	x := 0
	if flag {
		x = 1
	}
	return AllReduceInt(c, x, func(a, b int) int { return a * b }) != 0
}

// AllOr returns the disjunction of every process's flag.
func AllOr(c *core.Proc, flag bool) bool {
	x := 0
	if flag {
		x = 1
	}
	return AllReduceInt(c, x, func(a, b int) int { return a + b }) != 0
}

// GroupFanout returns the branching factor b = ⌈√p⌉ of the two-phase
// reduction tree over p processes: ranks are partitioned into ⌈p/b⌉
// contiguous groups of (at most) b members, each led by its lowest
// rank. Concentrating p messages through √p group leaders caps any
// single rank's per-superstep receive volume at ⌈√p⌉ messages instead
// of p — the standard BSP fix for a root that would otherwise absorb
// an O(p²)-unit h-relation (psort's splitter reduction is the staged,
// checkpointable unrolling of this tree).
func GroupFanout(p int) int {
	if p <= 1 {
		return 1
	}
	return int(math.Ceil(math.Sqrt(float64(p))))
}

// GroupLeader returns the leader of the group containing rank id for
// the given fanout: the lowest rank of id's contiguous group.
func GroupLeader(id, fanout int) int {
	return id - id%fanout
}

// GatherTwoPhase collects each process's data at root across two
// supersteps through the ⌈√p⌉-ary group tree of GroupFanout: members
// send to their group leader, leaders forward their group's
// concatenation to root. No rank receives more than ⌈√p⌉ messages in
// any superstep (Gather's root absorbs p at once); the byte volume at
// the root is conserved — a reduction that also wants the root's
// *byte* fan-in bounded must condense at the leaders, which is
// exactly what psort's staged splitter reduction layers on top of
// this tree. The result at root is indexed by source rank; other
// processes return nil. Cost: h = Σ|data| at root as in Gather but
// spread over two supersteps with ⌈√p⌉-bounded message fan-in, s = 2.
func GatherTwoPhase(c *core.Proc, root int, data []byte) [][]byte {
	p, id := c.P(), c.ID()
	b := GroupFanout(p)
	// Groups are laid out in root-relative rank space so the root is
	// always the leader of group 0, whatever rank it holds.
	rid := ((id-root)%p + p) % p
	leader := (GroupLeader(rid, b) + root) % p
	w := wire.NewWriter(8 + len(data))
	w.Int(id)
	w.Raw(data)
	c.Send(leader, w.Bytes())
	c.Sync()
	if rid%b == 0 {
		// Leader: forward the group's length-prefixed payloads. The
		// leader's own phase-1 message is in its inbox too, so the
		// forward is never empty.
		fw := wire.NewWriter(0)
		for {
			msg, ok := c.Recv()
			if !ok {
				break
			}
			fw.Int(len(msg))
			fw.Raw(msg)
		}
		c.Send(root, fw.Bytes())
	}
	c.Sync()
	if id != root {
		return nil
	}
	out := make([][]byte, p)
	for {
		msg, ok := c.Recv()
		if !ok {
			break
		}
		r := wire.NewReader(msg)
		for r.Remaining() > 0 {
			inner := wire.NewReader(r.Raw(r.Int()))
			src := inner.Int()
			out[src] = clone(inner.Raw(inner.Remaining()))
		}
	}
	return out
}

// Gather collects each process's data at root; the result at root is
// indexed by rank. Other processes return nil. Cost: h = Σ|data| at the
// root, s = 1.
func Gather(c *core.Proc, root int, data []byte) [][]byte {
	w := wire.NewWriter(8 + len(data))
	w.Int(c.ID())
	w.Raw(data)
	c.Send(root, w.Bytes())
	c.Sync()
	if c.ID() != root {
		return nil
	}
	out := make([][]byte, c.P())
	for {
		msg, ok := c.Recv()
		if !ok {
			return out
		}
		r := wire.NewReader(msg)
		src := r.Int()
		out[src] = clone(r.Raw(r.Remaining()))
	}
}

// Scatter distributes pieces[i] from root to process i and returns this
// process's piece. pieces is only read at root and must have length p.
// Cost: h = Σ|pieces| at the root, s = 1.
func Scatter(c *core.Proc, root int, pieces [][]byte) []byte {
	if c.ID() == root {
		if len(pieces) != c.P() {
			panic(fmt.Sprintf("collect: Scatter with %d pieces for %d processes", len(pieces), c.P()))
		}
		for i, piece := range pieces {
			if i != root {
				c.Send(i, piece)
			}
		}
	}
	c.Sync()
	if c.ID() == root {
		return pieces[root]
	}
	msg, ok := c.Recv()
	if !ok {
		panic("collect: Scatter received nothing")
	}
	return clone(msg)
}

// AllToAll delivers out[i] to process i and returns the received pieces
// indexed by source rank. out must have length p. Cost: h = max(Σ|out|,
// Σ|in|), s = 1.
func AllToAll(c *core.Proc, out [][]byte) [][]byte {
	if len(out) != c.P() {
		panic(fmt.Sprintf("collect: AllToAll with %d pieces for %d processes", len(out), c.P()))
	}
	for i, piece := range out {
		w := wire.NewWriter(8 + len(piece))
		w.Int(c.ID())
		w.Raw(piece)
		c.Send(i, w.Bytes())
	}
	c.Sync()
	in := make([][]byte, c.P())
	for {
		msg, ok := c.Recv()
		if !ok {
			return in
		}
		r := wire.NewReader(msg)
		src := r.Int()
		in[src] = clone(r.Raw(r.Remaining()))
	}
}

// ExclusiveScan returns the exclusive prefix sum of x by rank: process i
// receives x_0 + ... + x_{i-1} (0 for rank 0). Cost: h = p-1, s = 1.
func ExclusiveScan(c *core.Proc, x int) int {
	w := wire.NewWriter(8)
	w.Int(x)
	for i := c.ID() + 1; i < c.P(); i++ {
		c.Send(i, w.Bytes())
	}
	c.Sync()
	sum := 0
	for {
		msg, ok := c.Recv()
		if !ok {
			return sum
		}
		sum += wire.NewReader(msg).Int()
	}
}

// MaxFloat is a Reduce/AllReduce operator.
func MaxFloat(a, b float64) float64 { return math.Max(a, b) }

// SumFloat is a Reduce/AllReduce operator.
func SumFloat(a, b float64) float64 { return a + b }

// MinFloat is a Reduce/AllReduce operator.
func MinFloat(a, b float64) float64 { return math.Min(a, b) }
