package shmem

import (
	"bytes"
	"testing"
)

// FuzzShmemFrame throws arbitrary bytes at the shmem op decoder.  Ops
// arrive nested inside rma frames off the modeled network or a transport
// link from another process, so DecodeOp must never panic: it either rejects the input with an error or returns an op that
// re-encodes to exactly the bytes it was decoded from.
func FuzzShmemFrame(f *testing.F) {
	// Seed with one valid op of every kind, plus the wire-format extremes.
	seeds := []Op{
		{Kind: OpPut, Off: 64, Data: []byte("payload")},
		{Kind: OpPut, Off: 0},
		{Kind: OpGet, Off: 8, Val: 128, Req: 7},
		{Kind: OpGet, Off: MaxHeapBytes - CellBytes, Val: CellBytes, Req: 2},
		{Kind: OpAdd, Off: 16, Val: -3},
		{Kind: OpFetchAdd, Off: 24, Val: 1, Req: 1<<64 - 1},
		{Kind: OpCAS, Off: 32, Val: 1<<63 - 1, Cmp: -1, Req: 11},
		{Kind: OpStore, Off: 40, Val: -1 << 63},
	}
	for i := range seeds {
		f.Add(seeds[i].Encode(nil))
	}
	// Plus degenerate inputs the decoder must reject cleanly.
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(bytes.Repeat([]byte{0x00}, OpHeaderLen))
	f.Add(bytes.Repeat([]byte{0xFF}, OpHeaderLen+3))

	f.Fuzz(func(t *testing.T, b []byte) {
		o, err := DecodeOp(b)
		if err != nil {
			return
		}
		if o.Kind < OpPut || o.Kind > OpStore {
			t.Fatalf("decoder accepted out-of-range kind %d", o.Kind)
		}
		if o.Off < 0 {
			t.Fatalf("decoder accepted negative offset %d", o.Off)
		}
		if len(o.Data) > 0 && o.Kind != OpPut {
			t.Fatalf("decoder accepted payload on %s", OpName(o.Kind))
		}
		// Round-trip: re-encoding an accepted op must reproduce the input
		// exactly (Data aliases b, so lengths must agree too).
		if got := o.Encode(nil); !bytes.Equal(got, b) {
			t.Fatalf("re-encode mismatch:\n in:  %x\n out: %x", b, got)
		}
	})
}
