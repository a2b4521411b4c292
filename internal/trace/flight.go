package trace

import (
	"runtime"
	"sync/atomic"
)

// Flight recorder: an always-on, fixed-size record of the last events
// of every rank, kept even when full tracing is off.
//
// The full Recorder grows its per-rank event slices without bound —
// exactly right for a run that was launched with -trace, and exactly
// wrong for the production case the postmortem machinery targets: a
// long-lived cluster rank that is convicted by the liveness protocol
// hours in. The flight ring inverts the trade: a fixed number of
// slots per rank, overwritten in a circle, so memory is O(ring size)
// regardless of run length and the *most recent* history — the part
// that explains a crash — is always available for a dump.
//
// Concurrency contract: unlike the Buf event slices (single-writer,
// rank-goroutine confined), the ring is written and snapshotted with
// atomics only. That is deliberate: heartbeat and RTT events arrive
// from the transport's control-plane goroutines, and a postmortem
// snapshot is taken while other ranks of the same process may still
// be running. The cost is a per-slot seqlock instead of a plain
// store, which is still allocation-free — the exchange hot path stays
// inside core's TestExchangeAllocGate budget with the ring armed.

// DefaultRingSize is the per-rank flight-recorder capacity in events.
// A superstep contributes one compute, one sync and up to p pair
// events per rank, so 256 slots retain the last ~25 supersteps of an
// 8-rank run — far more than a root-cause analysis needs — in ~20 KiB
// per rank.
const DefaultRingSize = 256

// Ring is a fixed-size overwrite ring of Events. Writers claim a
// monotonically increasing ticket and publish into slot
// (ticket-1) & mask under a per-slot sequence word; readers validate
// the sequence around the field loads and skip slots that were torn
// by a concurrent overwrite. Any goroutine may record or snapshot.
//
// Tickets t and t+Cap share a slot. The sequence word orders them: a
// writer claims the slot by swapping in its ticket with the writing
// bit set, only from a published older ticket, and waits while an
// older writer holds it. A writer whose slot already carries a newer
// ticket drops its event, which the ring had lapped anyway. So one
// writer at a time stores fields, and a slot never goes back to an
// older event.
type Ring struct {
	mask  uint64
	slots []ringSlot
	next  atomic.Uint64 // tickets issued == events ever recorded
}

// ringSlot publishes one Event through atomics. seq holds the ticket
// of the event the slot currently carries, 0 if it was never written;
// with ringWriting set, a write of that ticket is in flight, so readers
// discard the slot.
type ringSlot struct {
	seq   atomic.Uint64
	kind  atomic.Int64
	rank  atomic.Int64
	step  atomic.Int64
	start atomic.Int64
	end   atomic.Int64
	a     atomic.Int64
	b     atomic.Int64
	c     atomic.Int64
	d     atomic.Int64
}

// ringWriting marks a slot's sequence word while its writer stores the
// fields.
const ringWriting = uint64(1) << 63

// NewRing returns a ring with at least size slots (rounded up to a
// power of two so the slot index is a mask, not a modulo).
func NewRing(size int) *Ring {
	if size < 1 {
		size = 1
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]ringSlot, n)}
}

// Cap returns the number of slots.
func (r *Ring) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Total returns how many events were ever recorded (retained or
// overwritten). Snapshot length plus drops reconciles against it.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Record publishes e, overwriting the oldest slot when full. Safe from
// any goroutine; never allocates.
func (r *Ring) Record(e Event) {
	if r == nil {
		return
	}
	r.publish(r.next.Add(1), e) // 1-based ticket
}

// publish writes e into ticket t's slot, unless a newer ticket has
// claimed it.
func (r *Ring) publish(t uint64, e Event) {
	s := &r.slots[(t-1)&r.mask]
	for {
		cur := s.seq.Load()
		if cur&^ringWriting >= t {
			return // lapped: the slot holds a newer event
		}
		if cur&ringWriting != 0 {
			runtime.Gosched() // an older writer is storing its fields
			continue
		}
		if s.seq.CompareAndSwap(cur, t|ringWriting) {
			break
		}
	}
	s.kind.Store(int64(e.Kind))
	s.rank.Store(int64(e.Rank))
	s.step.Store(int64(e.Step))
	s.start.Store(e.Start)
	s.end.Store(e.End)
	s.a.Store(e.A)
	s.b.Store(e.B)
	s.c.Store(e.C)
	s.d.Store(e.D)
	s.seq.Store(t)
}

// Snapshot copies the retained suffix of the event stream in record
// order. Safe concurrently with writers: a slot that is mid-write or
// was overwritten while being read fails its sequence check and is
// dropped rather than returned torn, so the result is always a
// (possibly shorter) suffix of fully published events.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	total := r.next.Load()
	n := uint64(len(r.slots))
	lo := uint64(1)
	if total > n {
		lo = total - n + 1
	}
	out := make([]Event, 0, total-lo+1)
	for t := lo; t <= total; t++ {
		s := &r.slots[(t-1)&r.mask]
		if s.seq.Load() != t {
			continue // in flight, or already lapped by a newer ticket
		}
		e := Event{
			Kind:  Kind(s.kind.Load()),
			Rank:  int32(s.rank.Load()),
			Step:  int32(s.step.Load()),
			Start: s.start.Load(),
			End:   s.end.Load(),
			A:     s.a.Load(),
			B:     s.b.Load(),
			C:     s.c.Load(),
			D:     s.d.Load(),
		}
		if s.seq.Load() != t {
			continue // overwritten while we copied: discard the torn read
		}
		out = append(out, e)
	}
	return out
}
