package main

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/transport"
)

// The superstep ledger is recorded from outside the library: a
// transport.Transport decorator times Open, and each rank's Begin,
// Send, Sync and Close, on one process clock shared by all ranks, so
// arrival skew across ranks is measurable. Spans stay in memory, linked
// run → rank → superstep → call, and are written out after the run.
//
// core only type-asserts optional endpoint seams (TraceSetter,
// DumpSetter, ProfSetter) when its own tracing, postmortem or profiling
// is armed; the benchmark arms none of them, so the decorator hides
// nothing the library would otherwise use.

// ledger is one traced run's spans. Times are nanoseconds since base.
type ledger struct {
	run       int
	transport string
	timeSends bool
	base      time.Time
	openNs    int64
	ranks     []*rankLedger
}

// rankLedger is one rank's spans; only that rank's goroutine writes it,
// and it is read after core.Run returns.
type rankLedger struct {
	Rank  int        `json:"rank"`
	Begin int64      `json:"begin_ns"`
	Close int64      `json:"close_ns"`
	Steps []stepSpan `json:"steps"`
	cur   stepSpan
}

// stepSpan is one rank's calls in one superstep: the Send calls it made
// (aggregated; each call is timed when timeSends is set) and its Sync
// call from arrival to release.
type stepSpan struct {
	Sends       int   `json:"sends"`
	Bytes       int   `json:"bytes"`
	RemoteSends int   `json:"remote_sends"`
	RemoteBytes int   `json:"remote_bytes"`
	SendNs      int64 `json:"send_ns"`
	Arrive      int64 `json:"arrive_ns"`
	Release     int64 `json:"release_ns"`
	Frames      int   `json:"frames"`
}

func newLedger(run int, timeSends bool) *ledger {
	return &ledger{run: run, timeSends: timeSends, base: time.Now()}
}

func (l *ledger) now() int64 { return int64(time.Since(l.base)) }

// tracedTransport is the benchmark-owned decorator over a registry
// transport.
type tracedTransport struct {
	inner transport.Transport
	l     *ledger
}

func (t tracedTransport) Name() string { return t.inner.Name() }

func (t tracedTransport) Open(p int) ([]transport.Endpoint, error) {
	t0 := t.l.now()
	eps, err := t.inner.Open(p)
	t.l.openNs = t.l.now() - t0
	t.l.transport = t.inner.Name()
	if err != nil {
		return nil, err
	}
	out := make([]transport.Endpoint, len(eps))
	t.l.ranks = make([]*rankLedger, len(eps))
	for i, ep := range eps {
		r := &rankLedger{Rank: ep.ID()}
		t.l.ranks[i] = r
		out[i] = &tracedEndpoint{Endpoint: ep, l: t.l, r: r}
	}
	return out, nil
}

type tracedEndpoint struct {
	transport.Endpoint
	l *ledger
	r *rankLedger
}

func (e *tracedEndpoint) Begin() {
	e.Endpoint.Begin()
	e.r.Begin = e.l.now()
}

func (e *tracedEndpoint) Send(dst int, msg []byte) {
	c := &e.r.cur
	if e.l.timeSends {
		t0 := e.l.now()
		e.Endpoint.Send(dst, msg)
		c.SendNs += e.l.now() - t0
	} else {
		e.Endpoint.Send(dst, msg)
	}
	c.Sends++
	c.Bytes += len(msg)
	if dst != e.r.Rank {
		c.RemoteSends++
		c.RemoteBytes += len(msg)
	}
}

func (e *tracedEndpoint) Sync() (*transport.Inbox, error) {
	c := &e.r.cur
	c.Arrive = e.l.now()
	in, err := e.Endpoint.Sync()
	c.Release = e.l.now()
	if err == nil {
		c.Frames = in.Frames()
	}
	e.r.Steps = append(e.r.Steps, *c)
	*c = stepSpan{}
	return in, err
}

func (e *tracedEndpoint) Close() error {
	e.r.Close = e.l.now()
	return e.Endpoint.Close()
}

// writeTo writes the ledger as one JSON document.
func (l *ledger) writeTo(w io.Writer) error {
	return json.NewEncoder(w).Encode(struct {
		Run       int           `json:"run"`
		Transport string        `json:"transport"`
		OpenNs    int64         `json:"open_ns"`
		Ranks     []*rankLedger `json:"ranks"`
	}{l.run, l.transport, l.openNs, l.ranks})
}

// tcpBatchHdr is the tcp transport's per-(src,dst) batch header (round
// and byte length), written every superstep even for an empty batch;
// frameHdr is the wire layer's per-message length prefix.
const (
	tcpBatchHdr = 8
	frameHdr    = 4
)

// reconciled is what the ledger yields for one run.
type reconciled struct {
	open, sync, exchange, wait, pack time.Duration
	// covered is the wall time the ledger accounts for: open, plus the
	// compute and sync of the last-arriving (critical) rank of every
	// superstep, plus the slowest trailing segment.
	covered              time.Duration
	sends, bytes, frames int
	wireBytes            int
	exchangeUs, hPerStep []float64
	syncP50Us, syncP99Us float64
}

// reconcile reduces the ledger to per-superstep critical-path figures.
// h gives each superstep's h-relation size from core's Stats. The
// critical rank of a superstep is the last to arrive at its Sync; since
// ranks are released at slightly different times, covered can exceed
// the wall time by that release skew.
func (l *ledger) reconcile(h []int) reconciled {
	var rc reconciled
	rc.open = time.Duration(l.openNs)
	rc.covered = rc.open
	if len(l.ranks) == 0 {
		return rc
	}
	// A run that completed has one Sync span per rank per superstep.
	steps := len(h)
	for s := 0; s < steps; s++ {
		last := l.ranks[0]
		var maxSync, maxPack int64
		for _, r := range l.ranks {
			sp := r.Steps[s]
			if sp.Arrive > last.Steps[s].Arrive {
				last = r
			}
			maxSync = max(maxSync, sp.Release-sp.Arrive)
			maxPack = max(maxPack, sp.SendNs)
			rc.sends += sp.Sends
			rc.bytes += sp.Bytes
			rc.frames += sp.Frames
			rc.wireBytes += sp.RemoteBytes + frameHdr*sp.RemoteSends
			if l.transport == "tcp" {
				rc.wireBytes += tcpBatchHdr * (len(l.ranks) - 1)
			}
		}
		ls := last.Steps[s]
		for _, r := range l.ranks {
			rc.wait += time.Duration(ls.Arrive - r.Steps[s].Arrive)
		}
		start := last.Begin
		if s > 0 {
			start = last.Steps[s-1].Release
		}
		ex := ls.Release - ls.Arrive
		rc.covered += time.Duration(ls.Release - start)
		rc.sync += time.Duration(maxSync)
		rc.exchange += time.Duration(ex)
		rc.pack += time.Duration(maxPack)
		rc.exchangeUs = append(rc.exchangeUs, float64(ex)/1e3)
		rc.hPerStep = append(rc.hPerStep, float64(h[s]))
	}
	var trailing int64
	for _, r := range l.ranks {
		end := r.Begin
		if steps > 0 {
			end = r.Steps[steps-1].Release
		}
		trailing = max(trailing, r.Close-end)
	}
	rc.covered += time.Duration(trailing)
	rc.syncP50Us = quantile(rc.exchangeUs, 0.50)
	rc.syncP99Us = quantile(rc.exchangeUs, 0.99)
	return rc
}

// fitGL is the paper's §3 procedure applied to a run's own supersteps:
// an ordinary least-squares line through the (h_i, exchange time in µs)
// pairs, whose slope is g in µs per packet and intercept L in µs. With
// no spread in h the slope is unidentifiable, so g = 0 and L is the mean
// exchange time. Negative estimates are measurement noise and are
// clamped to zero, as cost.OnlineEstimator does.
func fitGL(h, us []float64) cost.Params {
	n := float64(len(h))
	if n == 0 {
		return cost.Params{}
	}
	var sh, sw, shh, shw float64
	for i := range h {
		sh += h[i]
		sw += us[i]
		shh += h[i] * h[i]
		shw += h[i] * us[i]
	}
	mean := sw / n
	det := n*shh - sh*sh
	if det <= 1e-9*n*shh {
		return cost.Params{L: math.Max(mean, 0)}
	}
	g := (n*shw - sh*sw) / det
	l := (sw - g*sh) / n
	if g < 0 {
		g, l = 0, mean
	}
	return cost.Params{G: g, L: math.Max(l, 0)}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
