package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/nbody"
	"repro/internal/ocean"
	"repro/internal/transport"
)

// An app is one workload's BSP program with its input generator and
// oracle. The seed reaches only the generator; the program sees only the
// generated inputs.
type app interface {
	// reference builds the oracle's expected output for seed. It runs
	// once, before set-up is timed.
	reference(seed int64) error
	// generate makes the run inputs from seed (timed as set-up).
	generate(seed int64)
	// run executes one program run over tr. Its wall time is the run's
	// time, less the returned oracle time spent inside the program.
	run(tr transport.Transport) (out *runOut, err error)
	// check compares a run's output with the reference.
	check(out *runOut) error
}

// runOut is what one program run returns.
type runOut struct {
	st *core.Stats
	// inProgramCheck is oracle time the program spent inside the run
	// (hrel checks each superstep's delivery in place); it is taken off
	// the run's wall time.
	inProgramCheck time.Duration
	// brackets are the program's own per-rank, per-superstep timings
	// of its pack and drain loops (hrel only; nil elsewhere).
	brackets [][]bracket

	psi    *ocean.Fields
	bodies []nbody.Body
	errs   []error
}

// bracket is one rank's program-timed slices of one superstep.
type bracket struct{ pack, drain, check time.Duration }

// workload binds an app to the registry transport it runs on.
type workload struct {
	name string
	// transport is the registry name passed to transport.New.
	transport string
	// timeSends makes the traced run time each Endpoint.Send call.
	// hrel brackets its pack loop itself: timing each of its ~2.4M
	// 16-byte sends would swamp the ~55 ns each one costs.
	timeSends bool
	newApp    func() app
}

var workloads = []workload{
	{name: "ocean-tcp", transport: "tcp", timeSends: true, newApp: func() app { return &oceanApp{} }},
	{name: "hrel-tcp", transport: "tcp", timeSends: false, newApp: func() app { return &hrelApp{} }},
	{name: "nbody-shm", transport: "shm", timeSends: true, newApp: func() app { return &nbodyApp{} }},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// nproc is the BSP machine width of every workload.
const nproc = 2

// ---- ocean-tcp ----------------------------------------------------------

// oceanApp is the Ocean multigrid on a 258 grid for 4 timesteps. The seed
// sets the wind-stress amplitude in [0.9, 1.1].
type oceanApp struct {
	cfg ocean.Config
	ref *ocean.Fields
}

func oceanConfig(seed int64) ocean.Config {
	rng := rand.New(rand.NewSource(seed))
	return ocean.Config{Size: 258, Steps: 4, Wind: 0.9 + 0.2*rng.Float64()}
}

func (a *oceanApp) reference(seed int64) error {
	ref, _, err := ocean.Sequential(oceanConfig(seed))
	a.ref = ref
	return err
}

func (a *oceanApp) generate(seed int64) { a.cfg = oceanConfig(seed) }

func (a *oceanApp) run(tr transport.Transport) (*runOut, error) {
	psi, st, err := ocean.Parallel(core.Config{P: nproc, Transport: tr}, a.cfg)
	return &runOut{st: st, psi: psi}, err
}

// check requires Psi bit-identical to ocean.Sequential's.
func (a *oceanApp) check(out *runOut) error {
	got := out.psi
	if got == nil || got.M != a.ref.M || len(got.Psi) != len(a.ref.Psi) {
		return fmt.Errorf("ocean: grid shape differs from the sequential reference")
	}
	for i, v := range got.Psi {
		if math.Float64bits(v) != math.Float64bits(a.ref.Psi[i]) {
			return fmt.Errorf("ocean: psi[%d] = %v, sequential has %v", i, v, a.ref.Psi[i])
		}
	}
	return nil
}

// ---- hrel-tcp -----------------------------------------------------------

const (
	hrelSteps = 400
	hrelMaxH  = 1 << 16
)

// hrelApp is a random h-relation as in the paper's g measurement: each
// superstep, each rank sends h 16-byte packets to the other rank with
// SendPkt and drains them with GetPkt.
type hrelApp struct {
	seed uint64
	h    []int
}

// hrelSchedule draws the per-superstep h log-uniform in [1, 65536]. The
// draw is stratified (one value per 1/400 slice of the log range, in
// seeded order) so every seed moves about the same total volume and
// covers the whole h range the (g, L) fit needs.
func hrelSchedule(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	h := make([]int, hrelSteps)
	logMax := math.Log(hrelMaxH)
	for i := range h {
		u := (float64(i) + rng.Float64()) / hrelSteps
		h[i] = min(max(int(math.Exp(u*logMax)), 1), hrelMaxH)
	}
	rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
	return h
}

func (a *hrelApp) reference(int64) error { return nil }

func (a *hrelApp) generate(seed int64) {
	a.seed = uint64(seed)
	a.h = hrelSchedule(seed)
}

// mix64 is the splitmix64 finalizer: the seed-derived packet payload.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func hrelPayload(seed uint64, src, step, idx int) uint64 {
	return mix64(seed ^ uint64(src)<<56 ^ uint64(step)<<32 ^ uint64(idx))
}

// hrelPacket lays out (src u16, superstep u32, index u32, payload 48 bits).
func hrelPacket(pkt *core.Pkt, seed uint64, src, step, idx int) {
	binary.LittleEndian.PutUint16(pkt[0:], uint16(src))
	binary.LittleEndian.PutUint32(pkt[2:], uint32(step))
	binary.LittleEndian.PutUint32(pkt[6:], uint32(idx))
	pl := hrelPayload(seed, src, step, idx)
	binary.LittleEndian.PutUint32(pkt[10:], uint32(pl))
	binary.LittleEndian.PutUint16(pkt[14:], uint16(pl>>32))
}

// hrelCheck is the hrel oracle for one superstep's delivery to one rank:
// every packet src sent in step arrives exactly once with the contents
// it was sent with, and exactly h arrive. seen is scratch of at least h
// bits' worth of words.
func hrelCheck(pkts []core.Pkt, seed uint64, src, step, h int, seen []uint64) error {
	if len(pkts) != h {
		return fmt.Errorf("hrel: superstep %d: %d packets from rank %d, sent %d", step, len(pkts), src, h)
	}
	words := (h + 63) / 64
	clear(seen[:words])
	var want core.Pkt
	for i := range pkts {
		p := &pkts[i]
		idx := int(binary.LittleEndian.Uint32(p[6:]))
		if idx >= h {
			return fmt.Errorf("hrel: superstep %d: packet index %d out of range [0,%d)", step, idx, h)
		}
		hrelPacket(&want, seed, src, step, idx)
		if *p != want {
			return fmt.Errorf("hrel: superstep %d: packet %d from rank %d corrupted: got %x, sent %x", step, idx, src, p[:], want[:])
		}
		if seen[idx/64]&(1<<(idx%64)) != 0 {
			return fmt.Errorf("hrel: superstep %d: packet %d from rank %d delivered twice", step, idx, src)
		}
		seen[idx/64] |= 1 << (idx % 64)
	}
	return nil
}

func (a *hrelApp) run(tr transport.Transport) (*runOut, error) {
	out := &runOut{brackets: make([][]bracket, nproc), errs: make([]error, nproc)}
	st, err := core.Run(core.Config{P: nproc, Transport: tr}, func(c *core.Proc) {
		me, peer := c.ID(), 1-c.ID()
		br := make([]bracket, hrelSteps)
		buf := make([]core.Pkt, 0, hrelMaxH)
		seen := make([]uint64, hrelMaxH/64)
		var pkt core.Pkt
		for s, h := range a.h {
			t0 := time.Now()
			for i := 0; i < h; i++ {
				hrelPacket(&pkt, a.seed, me, s, i)
				c.SendPkt(peer, &pkt)
			}
			c.AddWork(h)
			t1 := time.Now()
			c.Sync()
			t2 := time.Now()
			buf = buf[:0]
			for {
				p, ok := c.GetPkt()
				if !ok {
					break
				}
				buf = append(buf, p)
			}
			t3 := time.Now()
			if err := hrelCheck(buf, a.seed, peer, s, h, seen); err != nil && out.errs[me] == nil {
				out.errs[me] = err
			}
			br[s] = bracket{pack: t1.Sub(t0), drain: t3.Sub(t2), check: time.Since(t3)}
		}
		out.brackets[me] = br
	})
	out.st = st
	if err == nil {
		for s := 0; s < hrelSteps; s++ {
			var worst time.Duration
			for r := range out.brackets {
				worst = max(worst, out.brackets[r][s].check)
			}
			out.inProgramCheck += worst
		}
	}
	return out, err
}

func (a *hrelApp) check(out *runOut) error {
	for _, err := range out.errs {
		if err != nil {
			return err
		}
	}
	for r, br := range out.brackets {
		if len(br) != hrelSteps {
			return fmt.Errorf("hrel: rank %d ran %d supersteps, want %d", r, len(br), hrelSteps)
		}
	}
	return nil
}

// ---- nbody-shm ----------------------------------------------------------

const (
	nbodyN     = 8000
	nbodySteps = 2
	// nbodyTol is the displacement tolerance of
	// TestParallelMatchesSequentialPositions.
	nbodyTol = 1e-3
)

// nbodyApp is Barnes-Hut on 8000 Plummer bodies for 2 steps; the seed
// picks the bodies.
type nbodyApp struct {
	bodies []nbody.Body
	ref    []nbody.Body // sequential result, sorted by x
	mass   float64
}

func (a *nbodyApp) reference(seed int64) error {
	ref := nbody.Plummer(nbodyN, seed)
	for _, b := range ref {
		a.mass += b.Mass
	}
	nbody.Sequential(ref, nbody.SimConfig{}, nbodySteps)
	sort.Slice(ref, func(i, j int) bool { return ref[i].Pos[0] < ref[j].Pos[0] })
	a.ref = ref
	return nil
}

func (a *nbodyApp) generate(seed int64) { a.bodies = nbody.Plummer(nbodyN, seed) }

func (a *nbodyApp) run(tr transport.Transport) (*runOut, error) {
	bodies, st, err := nbody.Parallel(core.Config{P: nproc, Transport: tr}, a.bodies, nbody.SimConfig{}, nbodySteps)
	return &runOut{st: st, bodies: bodies}, err
}

// check requires the body count and total mass conserved and every body
// within nbodyTol of a body of the sequential run (bodies migrate, so
// they are matched by nearest neighbour, as the library's own test does).
func (a *nbodyApp) check(out *runOut) error {
	if len(out.bodies) != len(a.ref) {
		return fmt.Errorf("nbody: %d bodies, started with %d", len(out.bodies), len(a.ref))
	}
	var mass float64
	for _, b := range out.bodies {
		mass += b.Mass
	}
	if math.Abs(mass-a.mass) > 1e-12*math.Abs(a.mass) {
		return fmt.Errorf("nbody: total mass %v, started with %v", mass, a.mass)
	}
	for _, b := range out.bodies {
		if d := nearest(a.ref, b.Pos); d > nbodyTol {
			return fmt.Errorf("nbody: body at %v is %g from every sequential body (tolerance %g)", b.Pos, d, nbodyTol)
		}
	}
	return nil
}

// nearest returns the distance from q to its nearest body in ref (sorted
// by x), or +Inf when none lies within nbodyTol along x.
func nearest(ref []nbody.Body, q nbody.Vec3) float64 {
	i := sort.Search(len(ref), func(i int) bool { return ref[i].Pos[0] >= q[0]-nbodyTol })
	best := math.Inf(1)
	for ; i < len(ref) && ref[i].Pos[0] <= q[0]+nbodyTol; i++ {
		best = math.Min(best, math.Sqrt(ref[i].Pos.Sub(q).Norm2()))
	}
	return best
}
