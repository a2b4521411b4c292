package nbody

import (
	"fmt"
	"math"
	"testing"
)

// refForce is the stack walk Tree.Force replaced, kept as its reference:
// pop a cell, skip it if massless, accept it as one interaction if it is
// a leaf or passes the θ-criterion, else push its children 0→7.
func refForce(t *Tree, pos Vec3, theta, eps float64) (Vec3, int) {
	eps2 := eps * eps
	var acc Vec3
	interactions := 0
	stack := make([]int32, 0, 64)
	stack = append(stack, t.root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.nodes[n]
		if nd.mass == 0 {
			continue
		}
		if nd.leaf {
			accumulate(&acc, pos, nd.com, nd.mass, eps2)
			interactions++
			continue
		}
		d := nd.com.Sub(pos)
		dist := math.Sqrt(d.Norm2())
		if 2*nd.half < theta*dist {
			accumulate(&acc, pos, nd.com, nd.mass, eps2)
			interactions++
			continue
		}
		for _, c := range nd.children {
			if c != noChild {
				stack = append(stack, c)
			}
		}
	}
	return acc, interactions
}

// sameBits reports whether a and b are bit-for-bit equal.
func sameBits(a, b Vec3) bool {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

func TestForceMatchesStackWalk(t *testing.T) {
	type input struct {
		name    string
		bodies  []Body
		queries []Vec3
	}
	var inputs []input
	for seed := int64(1); seed <= 5; seed++ {
		inputs = append(inputs, input{name: fmt.Sprintf("plummer-%d", seed), bodies: Plummer(400, seed)})
	}
	coincident := make([]Body, 10)
	for i := range coincident {
		coincident[i] = Body{Pos: Vec3{0.5, 0.5, 0.5}, Mass: 0.1}
	}
	coincident = append(coincident, Body{Pos: Vec3{-1, -1, -1}, Mass: 1})
	inputs = append(inputs, input{name: "coincident", bodies: coincident})
	// Every third body massless, plus a massless clump whose whole
	// subtree the walk must leave out.
	zero := Plummer(300, 6)
	for i := range zero {
		if i%3 == 0 {
			zero[i].Mass = 0
		}
	}
	for i := 0; i < 8; i++ {
		zero = append(zero, Body{Pos: Vec3{3 + 0.01*float64(i), 3, 3}})
	}
	inputs = append(inputs,
		input{name: "zero-mass", bodies: zero},
		input{name: "single", bodies: []Body{{Pos: Vec3{0.25, -0.5, 1}, Mass: 1}}},
		input{name: "empty", queries: []Vec3{{}, {1, 2, 3}}},
	)
	outside := []Vec3{{10, 10, 10}, {-50, 0, 0}, {0, 1e6, 0}, {1e300, -1e300, 0}, {math.Inf(1), 0, 0}, {math.NaN(), 0, 0}}
	for _, in := range inputs {
		lo, hi := Bounds(in.bodies)
		tree := NewTree(in.bodies, lo, hi)
		queries := append([]Vec3(nil), in.queries...)
		for _, b := range in.bodies {
			queries = append(queries, b.Pos)
		}
		queries = append(queries, outside...)
		for _, theta := range []float64{0.1, 0.5, 1.0} {
			total := 0
			for _, q := range queries {
				got, gotK := tree.Force(q, theta, 0.05)
				want, wantK := refForce(tree, q, theta, 0.05)
				if !sameBits(got, want) || gotK != wantK {
					t.Fatalf("%s θ=%g at %v: Force = %v (%d interactions), stack walk = %v (%d)",
						in.name, theta, q, got, gotK, want, wantK)
				}
				total += gotK
			}
			if len(in.bodies) > 0 && total == 0 {
				t.Errorf("%s θ=%g: no interactions at all", in.name, theta)
			}
		}
	}
}

func TestForceAllocatesNothing(t *testing.T) {
	bodies := Plummer(1000, 1)
	lo, hi := Bounds(bodies)
	tree := NewTree(bodies, lo, hi)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		tree.Force(bodies[i%len(bodies)].Pos, 0.5, 0.05)
		i++
	})
	if allocs != 0 {
		t.Errorf("Force allocates %v times per call, want 0", allocs)
	}
}
