package wire

import (
	"bytes"
	"reflect"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	b := AppendHello(nil, Version2)
	if len(b) != HelloSize {
		t.Fatalf("hello size %d want %d", len(b), HelloSize)
	}
	ver, err := ReadHello(bytes.NewReader(b))
	if err != nil || ver != Version2 {
		t.Fatalf("ReadHello: %d %v", ver, err)
	}
	// A newer proposal reads back as sent; the server answers it with
	// Version2.
	if ver, err := ReadHello(bytes.NewReader(AppendHello(nil, 7))); err != nil || ver != 7 {
		t.Fatalf("ReadHello(7): %d %v", ver, err)
	}

	// A tagged frame must not look like a hello.
	frame, err := AppendTaggedRequests(nil, 1, []Request{{Op: OpGet, Key: []byte("k")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHello(bytes.NewReader(frame)); err == nil {
		t.Fatal("tagged frame mistaken for hello")
	}

	// Corrupt magic and version are rejected.
	bad := AppendHello(nil, Version2)
	bad[5] ^= 0xff
	if _, err := ReadHello(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	for _, v := range []uint8{0, 1} {
		if _, err := ReadHello(bytes.NewReader(AppendHello(nil, v))); err == nil {
			t.Fatalf("version %d accepted", v)
		}
	}
}

func TestTaggedRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: []byte("alpha"), Cols: []int{0, 2}},
		{Op: OpPut, Key: []byte("beta"), Puts: []ColData{{Col: 1, Data: []byte("data")}}},
		{Op: OpCas, Key: []byte("gamma"), ExpectVersion: 42, Puts: []ColData{{Col: 0, Data: []byte("cond")}}},
		{Op: OpPutTTL, Key: []byte("zeta"), TTL: 300, Puts: []ColData{{Col: 2, Data: []byte("exp")}}},
		{Op: OpTouch, Key: []byte("eta"), TTL: 86400},
		{Op: OpRemove, Key: []byte("delta")},
		{Op: OpGetRange, Key: []byte("eps"), N: 7},
		{Op: OpStats},
	}
	frame, err := AppendTaggedRequests(nil, 0xdeadbeef, reqs)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	tag, n, err := ReadTaggedHeader(r)
	if err != nil || tag != 0xdeadbeef {
		t.Fatalf("header: tag=%x err=%v", tag, err)
	}
	var d DecodeBuf
	body, err := ReadTaggedRequestBody(r, n, &d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRequests(body, &d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeReqs(got), normalizeReqs(reqs)) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, reqs)
	}
}

func TestTaggedResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, Version: 9, Cols: [][]byte{[]byte("one"), []byte("two")}},
		{Status: StatusNotFound},
		{Status: StatusConflict, Version: 17},
		{Status: StatusOK, Pairs: []Pair{{Key: []byte("k"), Cols: [][]byte{[]byte("v")}}}},
	}
	frame, err := AppendTaggedResponses(nil, 7, resps)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(frame)
	tag, n, err := ReadTaggedHeader(r)
	if err != nil || tag != 7 {
		t.Fatalf("header: tag=%d err=%v", tag, err)
	}
	var d RespDecodeBuf
	got, err := ReadTaggedResponseBody(r, n, &d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(resps) {
		t.Fatalf("%d responses want %d", len(got), len(resps))
	}
	for i := range resps {
		if got[i].Status != resps[i].Status || got[i].Version != resps[i].Version {
			t.Fatalf("resp %d: %+v want %+v", i, got[i], resps[i])
		}
	}
	if string(got[0].Cols[1]) != "two" || string(got[3].Pairs[0].Key) != "k" {
		t.Fatalf("payload mismatch: %+v", got)
	}
}

// A CAS request's ExpectVersion must survive the round trip at full 64-bit
// width, alongside its column writes.
func TestCasRequestRoundTrip(t *testing.T) {
	reqs := []Request{{Op: OpCas, Key: []byte("key"), ExpectVersion: 1 << 40,
		Puts: []ColData{{Col: 3, Data: []byte("v")}}}}
	got := roundTripRequests(t, reqs)
	if got[0].Op != OpCas || got[0].ExpectVersion != 1<<40 || got[0].Puts[0].Col != 3 {
		t.Fatalf("cas round trip: %+v", got[0])
	}
}

func TestParseRequestsLenient(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: []byte("a")},
		{Op: OpCode(200), Key: []byte("b")}, // unknown opcode: undecodable
		{Op: OpGet, Key: []byte("c")},
	}
	frame, err := AppendTaggedRequests(nil, 1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[8:] // strip the tagged header
	var d DecodeBuf
	got, claimed, err := ParseRequestsLenient(body, &d)
	if err != nil {
		t.Fatal(err)
	}
	if claimed != 3 || len(got) != 1 {
		t.Fatalf("claimed=%d decoded=%d want 3/1", claimed, len(got))
	}
	if string(got[0].Key) != "a" {
		t.Fatalf("decoded prefix wrong: %+v", got)
	}

	// A fully well-formed batch decodes whole.
	okFrame, _ := AppendTaggedRequests(nil, 2, []Request{{Op: OpGet, Key: []byte("x")}, {Op: OpRemove, Key: []byte("y")}})
	got, claimed, err = ParseRequestsLenient(okFrame[8:], &d)
	if err != nil || claimed != 2 || len(got) != 2 {
		t.Fatalf("well-formed: %d/%d %v", len(got), claimed, err)
	}

	// A forged count is a frame-level error, not a per-request one.
	var forged []byte
	forged = append(forged, 0xff, 0xff, 0x00, 0x00) // claims 65535 requests
	forged = append(forged, 1, 0, 0, 'k')
	if _, _, err := ParseRequestsLenient(forged, &d); err == nil {
		t.Fatal("forged count accepted")
	}

	// Trailing bytes after a complete batch are a frame-level error too.
	trailing := append(append([]byte(nil), okFrame[8:]...), 0xAB)
	if _, _, err := ParseRequestsLenient(trailing, &d); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func normalizeReqs(in []Request) []Request {
	out := make([]Request, len(in))
	for i, r := range in {
		if len(r.Key) == 0 {
			r.Key = nil
		}
		if len(r.Cols) == 0 {
			r.Cols = nil
		}
		if len(r.Puts) == 0 {
			r.Puts = nil
		}
		out[i] = r
	}
	return out
}
