package transport

import (
	"bytes"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: KindHello, SrcNode: 2, Payload: (&Hello{Job: 7, Node: 2, Nodes: 4, NRanks: 16, Delivered: 99}).Encode()},
		{Kind: KindData, SrcNode: 0, Seq: 12, Ack: 11, SrcRank: 3, DstRank: 9, Tag: 42, Comm: 1, Payload: []byte("hello pure")},
		{Kind: KindAck, SrcNode: 1, Ack: 1 << 40},
		{Kind: KindHeartbeat, SrcNode: 3, Payload: (&Heartbeat{Nonce: 5, SentUnixNano: 123456789}).Encode()},
		{Kind: KindBye, SrcNode: 1, Payload: (&Bye{Abort: true, Reason: "poisoned"}).Encode()},
		{Kind: KindApplied, SrcNode: 1, Seq: 1, SrcRank: 4, DstRank: 0, Tag: 1<<29 + 1, Comm: 1, Payload: make([]byte, 8)},
		{Kind: KindData, SrcNode: 0, Seq: 1, Payload: nil}, // empty payload
	}
	var buf []byte
	for i := range frames {
		buf = AppendFrame(buf, &frames[i])
	}
	rest := buf
	for i := range frames {
		got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		rest = rest[n:]
		want := frames[i]
		if got.Kind != want.Kind || got.SrcNode != want.SrcNode || got.Seq != want.Seq ||
			got.Ack != want.Ack || got.SrcRank != want.SrcRank || got.DstRank != want.DstRank ||
			got.Tag != want.Tag || got.Comm != want.Comm || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding all frames", len(rest))
	}
}

func TestFrameReaderStream(t *testing.T) {
	var buf bytes.Buffer
	const n = 50
	for i := 0; i < n; i++ {
		f := Frame{Kind: KindData, Seq: uint64(i + 1), SrcRank: int32(i), Payload: bytes.Repeat([]byte{byte(i)}, i)}
		buf.Write(f.Encode())
	}
	fr := frameReader{r: &buf}
	var f Frame
	for i := 0; i < n; i++ {
		if err := fr.Read(&f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Seq != uint64(i+1) || len(f.Payload) != i {
			t.Fatalf("frame %d: got seq %d payload %d", i, f.Seq, len(f.Payload))
		}
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	good := (&Frame{Kind: KindData, Seq: 1, Payload: []byte("x")}).Encode()

	cases := []struct {
		name string
		mut  func([]byte)
		want string
	}{
		{"short buffer", func(b []byte) {}, "shorter than"},
		{"bad magic", func(b []byte) { b[0] = 0xff }, "magic"},
		{"bad version", func(b []byte) { b[2] = 99 }, "version"},
		{"zero kind", func(b []byte) { b[3] = 0 }, "kind"},
		{"kind past applied", func(b []byte) { b[3] = byte(KindApplied) + 1 }, "kind"},
		{"oversized payload", func(b []byte) { b[36], b[37], b[38], b[39] = 0xff, 0xff, 0xff, 0xff }, "exceeds"},
		{"truncated payload", func(b []byte) { b[36] = 200 }, "truncated"},
	}
	for _, tc := range cases {
		b := append([]byte(nil), good...)
		if tc.name == "short buffer" {
			b = b[:HeaderLen-1]
		}
		tc.mut(b)
		if _, _, err := DecodeFrame(b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestControlCodecs(t *testing.T) {
	h := Hello{Job: 1 << 60, Node: 3, Nodes: 8, NRanks: 64, Delivered: 1 << 50}
	got, err := DecodeHello(h.Encode())
	if err != nil || got != h {
		t.Fatalf("hello round trip: %+v, %v", got, err)
	}
	if _, err := DecodeHello([]byte{1, 2, 3}); err == nil {
		t.Fatal("short hello decoded")
	}

	hb := Heartbeat{Nonce: 9, SentUnixNano: -5}
	gotHB, err := DecodeHeartbeat(hb.Encode())
	if err != nil || gotHB != hb {
		t.Fatalf("heartbeat round trip: %+v, %v", gotHB, err)
	}
	if _, err := DecodeHeartbeat(nil); err == nil {
		t.Fatal("empty heartbeat decoded")
	}

	for _, y := range []Bye{
		{},
		{Abort: true, Reason: "node 2 poisoned: panic"},
		{Reason: strings.Repeat("r", maxByeReason+100)},
		{Abort: true, Reason: "node 0 reported node 3 dead", Dead: []int32{3}},
		{Abort: true, Dead: []int32{1, 4, 2}},
	} {
		got, err := DecodeBye(y.Encode())
		if err != nil {
			t.Fatalf("bye %+v: %v", y, err)
		}
		wantReason := y.Reason
		if len(wantReason) > maxByeReason {
			wantReason = wantReason[:maxByeReason]
		}
		if got.Abort != y.Abort || got.Reason != wantReason {
			t.Fatalf("bye round trip: got %+v", got)
		}
		if len(got.Dead) != len(y.Dead) {
			t.Fatalf("bye dead round trip: got %v, want %v", got.Dead, y.Dead)
		}
		for i := range got.Dead {
			if got.Dead[i] != y.Dead[i] {
				t.Fatalf("bye dead round trip: got %v, want %v", got.Dead, y.Dead)
			}
		}
	}
	if _, err := DecodeBye([]byte{2, 0, 0, 0, 0}); err == nil {
		t.Fatal("bye with non-bool flag decoded")
	}
	if _, err := DecodeBye([]byte{0, 5, 0, 'x'}); err == nil {
		t.Fatal("bye with wrong length decoded")
	}
	if _, err := DecodeBye([]byte{0, 0, 0}); err == nil {
		t.Fatal("bye missing its dead-list header decoded")
	}
	if _, err := DecodeBye([]byte{0, 0, 0, 2, 0, 1, 0, 0, 0}); err == nil {
		t.Fatal("bye with truncated dead list decoded")
	}
}

func TestKindString(t *testing.T) {
	if KindData.String() != "data" || KindApplied.String() != "applied" {
		t.Fatalf("kind names: %s %s", KindData, KindApplied)
	}
	if !KindData.sequenced() || !KindApplied.sequenced() || KindAck.sequenced() || KindHeartbeat.sequenced() {
		t.Fatal("sequenced() misclassifies kinds")
	}
}
