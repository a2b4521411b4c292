package wire

import (
	"encoding/binary"
	"fmt"
)

// Frame batching.
//
// The transports exchange one contiguous buffer per (src,dst) pair per
// superstep — the paper's message combining: the MPI version ships "a
// distinct input and output buffer ... for each of the other processes"
// whole, and the shared-memory version deposits packets into large
// per-writer blocks (Appendix B). A batch is a sequence of frames laid
// out back to back:
//
//	[u32 payload length][payload bytes] ...
//
// AppendFrame combines a message into a growing batch; EncodeBatch
// frames a whole message list in one call; DecodeBatch and FrameIter
// recover zero-copy payload views; BatchStats validates a received
// batch and counts its frames and packets in a single pass before any
// view is handed out.

// frameHdrLen is the length prefix size of one frame.
const frameHdrLen = 4

// MaxFramePayload bounds a single frame's payload; it guards length
// prefixes read from untrusted bytes (a corrupt TCP stream).
const MaxFramePayload = 1 << 30

// AppendFrame appends one length-prefixed frame carrying msg to batch
// and returns the extended buffer. The msg bytes are copied; the caller
// keeps ownership of msg.
func AppendFrame(batch, msg []byte) []byte {
	batch = binary.LittleEndian.AppendUint32(batch, uint32(len(msg)))
	return append(batch, msg...)
}

// EncodeBatch frames every message of msgs into dst in one call and
// returns the extended buffer (the whole per-pair buffer encode).
func EncodeBatch(dst []byte, msgs [][]byte) []byte {
	n := 0
	for _, m := range msgs {
		n += frameHdrLen + len(m)
	}
	if cap(dst)-len(dst) < n {
		grown := make([]byte, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	for _, m := range msgs {
		dst = AppendFrame(dst, m)
	}
	return dst
}

// FrameCount validates batch in one pass and returns the number of
// frames it holds (BatchStats without the packet count).
func FrameCount(batch []byte) (int, error) {
	frames, _, err := BatchStats(batch)
	return frames, err
}

// PktBytes is the fixed packet size of the cost model's h-relation
// currency (core.PktSize; duplicated here so wire stays dependency-free).
const PktBytes = 16

// BatchStats validates batch in one pass and returns both its frame
// count and its size in packet units — ceil(payload/PktBytes) per
// frame, minimum one, matching core's h-relation accounting. It is the
// only integrity check a receiver needs before iterating zero-copy
// views, and the one pass that prices a delivery in packets. Senders
// record the same two numbers on every per-pair handoff, so a trace
// validator can reconcile pair totals against the superstep counters.
func BatchStats(batch []byte) (frames, pkts int, err error) {
	for off := 0; off < len(batch); {
		if len(batch)-off < frameHdrLen {
			return frames, pkts, fmt.Errorf("wire: truncated frame header at offset %d of %d", off, len(batch))
		}
		n := binary.LittleEndian.Uint32(batch[off:])
		if n > MaxFramePayload {
			return frames, pkts, fmt.Errorf("wire: corrupt frame length %d at offset %d", n, off)
		}
		off += frameHdrLen
		if len(batch)-off < int(n) {
			return frames, pkts, fmt.Errorf("wire: truncated frame payload: need %d bytes at offset %d of %d", n, off, len(batch))
		}
		off += int(n)
		frames++
		if n <= PktBytes {
			pkts++
		} else {
			pkts += (int(n) + PktBytes - 1) / PktBytes
		}
	}
	return frames, pkts, nil
}

// DecodeBatch appends a zero-copy view of every frame payload in batch
// to views and returns the extended slice (the whole per-pair buffer
// decode). The views alias batch and share its lifetime. batch must
// have been validated (BatchStats) or locally produced; a malformed
// batch returns an error with the views decoded so far.
func DecodeBatch(views [][]byte, batch []byte) ([][]byte, error) {
	for off := 0; off < len(batch); {
		view, next, err := frameAt(batch, off)
		if err != nil {
			return views, err
		}
		views = append(views, view)
		off = next
	}
	return views, nil
}

// frameAt returns the payload view of the frame starting at off and the
// offset of the following frame.
func frameAt(batch []byte, off int) ([]byte, int, error) {
	if len(batch)-off < frameHdrLen {
		return nil, off, fmt.Errorf("wire: truncated frame header at offset %d of %d", off, len(batch))
	}
	n := binary.LittleEndian.Uint32(batch[off:])
	if n > MaxFramePayload {
		return nil, off, fmt.Errorf("wire: corrupt frame length %d at offset %d", n, off)
	}
	start := off + frameHdrLen
	if len(batch)-start < int(n) {
		return nil, off, fmt.Errorf("wire: truncated frame payload: need %d bytes at offset %d of %d", n, start, len(batch))
	}
	return batch[start : start+int(n) : start+int(n)], start + int(n), nil
}

// FrameIter iterates the payload views of a validated batch. The zero
// value is an exhausted iterator; Reset arms it. Iteration is zero-copy:
// every view aliases the batch buffer.
type FrameIter struct {
	batch []byte
	off   int
}

// Reset arms the iterator over batch, which must have passed
// BatchStats. Next does not validate again; it relies on Go's bounds
// checks, so corrupt framing panics (a malformed batch at this layer
// is a transport bug, not recoverable input). The batch is capped at
// its length so those checks stop at the last valid byte.
func (it *FrameIter) Reset(batch []byte) { it.batch, it.off = batch[:len(batch):len(batch)], 0 }

// Next returns the next payload view, or ok == false when the batch is
// exhausted.
func (it *FrameIter) Next() ([]byte, bool) {
	off := it.off
	if off >= len(it.batch) {
		return nil, false
	}
	start := off + frameHdrLen
	end := start + int(binary.LittleEndian.Uint32(it.batch[off:]))
	it.off = end
	return it.batch[start:end:end], true
}
