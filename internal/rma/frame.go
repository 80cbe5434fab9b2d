package rma

import (
	"encoding/binary"
	"fmt"

	"repro/internal/collective"
)

// Remote RMA frame format.  Inter-node window operations travel as frames
// over the same inter-node path as ordinary messages (the modeled wire's
// mailboxes, or the transport link), on a reserved tag outside the
// application tag space.  One frame is one operation; the
// per-flow frame order is the application order, and the link layer
// guarantees in-order single delivery, so the target applies frames as it
// drains them.

// FrameKind identifies a remote window operation.
type FrameKind uint8

// Frame kinds.
const (
	// FramePut carries a Put payload to be copied into the target window.
	FramePut FrameKind = iota + 1
	// FrameAcc carries an Accumulate payload plus op/dtype.
	FrameAcc
	// FrameGetReq asks the target to read its window and reply.
	FrameGetReq
	// FrameGetRep is the reply to a FrameGetReq; Aux echoes the request id.
	FrameGetRep
	// FrameNotify increments the target's notification counter Aux.
	FrameNotify
	// FramePost publishes the sender's PSCW exposure epoch (round in Aux)
	// into the receiving origin's window replica.  Used when window members
	// span OS processes, where the shared post flags are not shared.
	FramePost
	// FrameComplete publishes the sender's PSCW access-epoch completion
	// toward Target (round in Aux), the cross-process form of the complete
	// flag matrix.
	FrameComplete
	// FrameShmem nests one encoded shmem.Op (the PGAS layer's addressed
	// operation codec) in the payload; the header's window names the
	// symmetric heap.  Fetching ops reply via FrameGetRep with the op's
	// request id in Aux, reusing the get-reply plumbing unchanged.
	FrameShmem
)

var frameKindNames = [...]string{"invalid", "put", "acc", "get-req", "get-rep", "notify", "post", "complete", "shmem"}

// String returns the kind's stable name.
func (k FrameKind) String() string {
	if int(k) < len(frameKindNames) {
		return frameKindNames[k]
	}
	return fmt.Sprintf("FrameKind(%d)", int(k))
}

// Frame is one decoded remote window operation.
type Frame struct {
	Kind   FrameKind
	WinSeq uint64 // window sequence within the communicator (Key.Seq)
	Origin uint32 // origin comm rank
	Target uint32 // target comm rank
	Off    uint64 // window byte offset (put/acc/get-req)
	// Aux is kind-specific: the packed op/dtype for FrameAcc (see PackAcc),
	// the origin-local request id for FrameGetReq/FrameGetRep, and the
	// notification slot for FrameNotify.
	Aux uint64
	// N is the requested byte count for FrameGetReq (other kinds carry
	// their length as len(Payload)).
	N       uint64
	Payload []byte
}

// headerLen is the fixed frame header size.
const headerLen = 1 + 8 + 4 + 4 + 8 + 8 + 8

// Encode serializes f (header plus payload) into a fresh buffer.
func (f *Frame) Encode() []byte {
	b := make([]byte, headerLen+len(f.Payload))
	b[0] = byte(f.Kind)
	binary.LittleEndian.PutUint64(b[1:], f.WinSeq)
	binary.LittleEndian.PutUint32(b[9:], f.Origin)
	binary.LittleEndian.PutUint32(b[13:], f.Target)
	binary.LittleEndian.PutUint64(b[17:], f.Off)
	binary.LittleEndian.PutUint64(b[25:], f.Aux)
	binary.LittleEndian.PutUint64(b[33:], f.N)
	copy(b[headerLen:], f.Payload)
	return b
}

// DecodeFrame parses an encoded frame.  The payload aliases b.
func DecodeFrame(b []byte) (Frame, error) {
	if len(b) < headerLen {
		return Frame{}, fmt.Errorf("rma: %d-byte frame shorter than the %d-byte header", len(b), headerLen)
	}
	f := Frame{
		Kind:    FrameKind(b[0]),
		WinSeq:  binary.LittleEndian.Uint64(b[1:]),
		Origin:  binary.LittleEndian.Uint32(b[9:]),
		Target:  binary.LittleEndian.Uint32(b[13:]),
		Off:     binary.LittleEndian.Uint64(b[17:]),
		Aux:     binary.LittleEndian.Uint64(b[25:]),
		N:       binary.LittleEndian.Uint64(b[33:]),
		Payload: b[headerLen:],
	}
	if f.Kind < FramePut || f.Kind > FrameShmem {
		return Frame{}, fmt.Errorf("rma: unknown frame kind %d", b[0])
	}
	return f, nil
}

// PackAcc packs an Accumulate's op/dtype into a frame Aux value.
func PackAcc(op collective.Op, dt collective.DType) uint64 {
	return uint64(uint32(op))<<32 | uint64(uint32(dt))
}

// UnpackAcc inverts PackAcc.
func UnpackAcc(aux uint64) (collective.Op, collective.DType) {
	return collective.Op(uint32(aux >> 32)), collective.DType(uint32(aux))
}
