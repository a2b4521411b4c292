package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestFrameRoundTrip: AppendFrame/EncodeBatch followed by
// FrameCount/DecodeBatch/FrameIter recovers exactly the encoded message
// sequence, including empty messages and an empty batch.
func TestFrameRoundTrip(t *testing.T) {
	cases := [][][]byte{
		nil,
		{{}},
		{[]byte("a")},
		{[]byte("hello"), {}, []byte("world"), bytes.Repeat([]byte{0xAB}, 4096)},
	}
	for ci, msgs := range cases {
		var batch []byte
		for _, m := range msgs {
			batch = AppendFrame(batch, m)
		}
		enc := EncodeBatch(nil, msgs)
		if !bytes.Equal(batch, enc) {
			t.Errorf("case %d: AppendFrame and EncodeBatch disagree", ci)
		}
		n, err := FrameCount(batch)
		if err != nil || n != len(msgs) {
			t.Errorf("case %d: FrameCount = %d, %v; want %d, nil", ci, n, err, len(msgs))
		}
		views, err := DecodeBatch(nil, batch)
		if err != nil || len(views) != len(msgs) {
			t.Fatalf("case %d: DecodeBatch = %d views, %v", ci, len(views), err)
		}
		var it FrameIter
		it.Reset(batch)
		for i, want := range msgs {
			if !bytes.Equal(views[i], want) {
				t.Errorf("case %d: view %d = %q, want %q", ci, i, views[i], want)
			}
			got, ok := it.Next()
			if !ok || !bytes.Equal(got, want) {
				t.Errorf("case %d: iter frame %d = %q ok=%v, want %q", ci, i, got, ok, want)
			}
		}
		if _, ok := it.Next(); ok {
			t.Errorf("case %d: iterator yields frames past the batch end", ci)
		}
	}
}

// TestFrameViewsCapped: decoded views must be three-index slices, so an
// append through a view cannot overwrite the next frame in the batch.
func TestFrameViewsCapped(t *testing.T) {
	batch := EncodeBatch(nil, [][]byte{[]byte("aa"), []byte("bb")})
	views, err := DecodeBatch(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	if cap(views[0]) != len(views[0]) {
		t.Fatalf("view cap %d > len %d: append could clobber the next frame", cap(views[0]), len(views[0]))
	}
	_ = append(views[0], 0xFF) // must reallocate, not scribble
	if string(views[1]) != "bb" {
		t.Fatalf("append through view corrupted sibling frame: %q", views[1])
	}
}

// TestFrameCorruptBatch: truncated headers, truncated payloads and
// absurd lengths are reported, never sliced out of range.
func TestFrameCorruptBatch(t *testing.T) {
	good := EncodeBatch(nil, [][]byte{[]byte("payload")})
	for _, tc := range []struct {
		name  string
		batch []byte
	}{
		{"short header", good[:2]},
		{"short payload", good[:len(good)-3]},
		{"huge length", binary.LittleEndian.AppendUint32(nil, MaxFramePayload+1)},
	} {
		if _, err := FrameCount(tc.batch); err == nil {
			t.Errorf("%s: FrameCount accepted a corrupt batch", tc.name)
		}
		if _, err := DecodeBatch(nil, tc.batch); err == nil {
			t.Errorf("%s: DecodeBatch accepted a corrupt batch", tc.name)
		}
	}
}

// TestFrameIterPanicsPastBatchEnd: FrameIter trusts a validated batch
// and does not check it again, but a frame length that runs past the
// batch must still panic, even when the buffer's spare capacity would
// cover it, rather than hand out bytes beyond the batch.
func TestFrameIterPanicsPastBatchEnd(t *testing.T) {
	batch := AppendFrame(make([]byte, 0, 64), []byte("payload"))
	binary.LittleEndian.PutUint32(batch, uint32(len(batch)))
	defer func() {
		if recover() == nil {
			t.Fatal("FrameIter.Next sliced past the batch end without panicking")
		}
	}()
	var it FrameIter
	it.Reset(batch)
	view, _ := it.Next()
	t.Fatalf("FrameIter.Next returned a %d-byte view of a %d-byte batch", len(view), len(batch))
}

// FuzzFrameBatch feeds arbitrary bytes to the batch validator and
// decoder: they must agree with each other and never panic or slice out
// of range. On any batch FrameCount accepts, BatchStats must agree with
// FrameCount and with DecodeBatch's views (frames and packet units),
// FrameIter, which does not validate, must yield exactly those views,
// and the views must re-encode to the identical bytes.
func FuzzFrameBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeBatch(nil, [][]byte{[]byte("seed"), {}, []byte("x")}))
	f.Add(EncodeBatch(nil, [][]byte{make([]byte, PktBytes), make([]byte, PktBytes+1), make([]byte, 3*PktBytes)}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, batch []byte) {
		n, cntErr := FrameCount(batch)
		frames, pkts, statErr := BatchStats(batch)
		views, decErr := DecodeBatch(nil, batch)
		if (cntErr == nil) != (decErr == nil) || (cntErr == nil) != (statErr == nil) {
			t.Fatalf("FrameCount err=%v, BatchStats err=%v, DecodeBatch err=%v", cntErr, statErr, decErr)
		}
		if cntErr != nil {
			return
		}
		if len(views) != n || frames != n {
			t.Fatalf("FrameCount = %d, BatchStats = %d frames, DecodeBatch yielded %d views", n, frames, len(views))
		}
		if want := pktUnitsOf(views); pkts != want {
			t.Fatalf("BatchStats = %d packet units, the decoded views hold %d", pkts, want)
		}
		var it FrameIter
		it.Reset(batch)
		for i, want := range views {
			got, ok := it.Next()
			if !ok || !bytes.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("FrameIter frame %d = %q (ok=%v, cap %d), want DecodeBatch's %q", i, got, ok, cap(got), want)
			}
		}
		if _, ok := it.Next(); ok {
			t.Fatal("FrameIter yields frames past DecodeBatch's last view")
		}
		if re := EncodeBatch(nil, views); !bytes.Equal(re, batch) {
			t.Fatalf("re-encoding %d decoded frames does not reproduce the batch", n)
		}
	})
}

// pktUnitsOf prices views the way core does: ceil(len/PktBytes) per
// message, minimum one.
func pktUnitsOf(views [][]byte) int {
	n := 0
	for _, v := range views {
		n += max(1, (len(v)+PktBytes-1)/PktBytes)
	}
	return n
}
