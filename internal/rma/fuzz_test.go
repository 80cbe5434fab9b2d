package rma

import (
	"bytes"
	"testing"

	"repro/internal/collective"
)

// FuzzFrameDecode throws arbitrary bytes at the remote-frame decoder.
// Frames arrive off the modeled network or a transport link from another
// process, so DecodeFrame must never panic: it either
// rejects the input with an error or returns a frame that re-encodes to
// the same header and payload it was decoded from.
func FuzzFrameDecode(f *testing.F) {
	// Seed with one valid frame of every kind, including the Aux packings.
	seeds := []Frame{
		{Kind: FramePut, WinSeq: 1, Origin: 0, Target: 1, Off: 64, Payload: []byte("payload")},
		{Kind: FrameAcc, WinSeq: 2, Origin: 1, Target: 0, Off: 0, Aux: PackAcc(collective.OpSum, collective.Float64), Payload: make([]byte, 16)},
		{Kind: FrameGetReq, WinSeq: 3, Origin: 2, Target: 3, Off: 8, Aux: 7, N: 128},
		{Kind: FrameGetRep, WinSeq: 3, Origin: 3, Target: 2, Aux: 7, Payload: bytes.Repeat([]byte{0xAB}, 128)},
		{Kind: FrameNotify, WinSeq: 4, Origin: 0, Target: 1, Aux: 5},
		{Kind: FramePost, WinSeq: 5, Origin: 1, Target: 0, Aux: 3},
		{Kind: FrameComplete, WinSeq: 5, Origin: 0, Target: 1, Aux: 3},
		{Kind: FrameShmem, WinSeq: 6, Origin: 1, Target: 0, Payload: []byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
	}
	for i := range seeds {
		f.Add(seeds[i].Encode())
	}
	// Plus degenerate inputs the decoder must reject cleanly.
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(bytes.Repeat([]byte{0x00}, headerLen))
	f.Add(bytes.Repeat([]byte{0xFF}, headerLen+3))

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if fr.Kind < FramePut || fr.Kind > FrameShmem {
			t.Fatalf("decoder accepted out-of-range kind %d", fr.Kind)
		}
		// Round-trip: re-encoding an accepted frame must reproduce the
		// input exactly (the payload aliases b, so lengths must agree too).
		if got := fr.Encode(); !bytes.Equal(got, b) {
			t.Fatalf("re-encode mismatch:\n in:  %x\n out: %x", b, got)
		}
		// The packed accumulate metadata must survive a pack/unpack cycle.
		if fr.Kind == FrameAcc {
			op, dt := UnpackAcc(fr.Aux)
			if PackAcc(op, dt) != fr.Aux {
				t.Fatalf("PackAcc(UnpackAcc(%#x)) = %#x", fr.Aux, PackAcc(op, dt))
			}
		}
	})
}
