package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

// readRequestFrame reads one tagged request frame from r and decodes it
// into d, the way the server's reader stage does.
func readRequestFrame(r io.Reader, d *DecodeBuf) ([]Request, error) {
	_, n, err := ReadTaggedHeader(r)
	if err != nil {
		return nil, err
	}
	body, err := ReadTaggedRequestBody(r, n, d)
	if err != nil {
		return nil, err
	}
	return ParseRequests(body, d)
}

// readResponseFrame reads one tagged response frame from r into d, the way
// the client's reader does.
func readResponseFrame(r io.Reader, d *RespDecodeBuf) ([]Response, error) {
	_, n, err := ReadTaggedHeader(r)
	if err != nil {
		return nil, err
	}
	return ReadTaggedResponseBody(r, n, d)
}

func roundTripRequests(t *testing.T, reqs []Request) []Request {
	t.Helper()
	frame, err := AppendTaggedRequests(nil, 1, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var d DecodeBuf
	got, err := readRequestFrame(bytes.NewReader(frame), &d)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: []byte("k1"), Cols: []int{0, 3}},
		{Op: OpGet, Key: []byte("")},
		{Op: OpPut, Key: []byte("k2"), Puts: []ColData{{Col: 1, Data: []byte("data")}, {Col: 0, Data: nil}}},
		{Op: OpPutTTL, Key: []byte("kt"), TTL: 60, Puts: []ColData{{Col: 0, Data: []byte("exp")}}},
		{Op: OpTouch, Key: []byte("kt"), TTL: 120},
		{Op: OpRemove, Key: []byte("k3")},
		{Op: OpGetRange, Key: []byte("start"), N: 100, Cols: []int{2}},
		{Op: OpGetRange, Key: nil, N: 0},
	}
	got := roundTripRequests(t, reqs)
	if len(got) != len(reqs) {
		t.Fatalf("got %d requests", len(got))
	}
	for i := range reqs {
		if got[i].Op != reqs[i].Op || !bytes.Equal(got[i].Key, reqs[i].Key) ||
			got[i].N != reqs[i].N || !reflect.DeepEqual(got[i].Cols, reqs[i].Cols) ||
			got[i].TTL != reqs[i].TTL {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, got[i], reqs[i])
		}
		if len(got[i].Puts) != len(reqs[i].Puts) {
			t.Fatalf("request %d puts mismatch", i)
		}
		for j := range reqs[i].Puts {
			if got[i].Puts[j].Col != reqs[i].Puts[j].Col || !bytes.Equal(got[i].Puts[j].Data, reqs[i].Puts[j].Data) {
				t.Fatalf("request %d put %d mismatch", i, j)
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, Version: 1 << 50},
		{Status: StatusNotFound},
		{Status: StatusOK, Cols: [][]byte{[]byte("a"), nil, []byte("ccc")}},
		{Status: StatusOK, Pairs: []Pair{
			{Key: []byte("k1"), Cols: [][]byte{[]byte("v1")}},
			{Key: []byte(""), Cols: nil},
		}},
	}
	frame, err := AppendTaggedResponses(nil, 1, resps)
	if err != nil {
		t.Fatal(err)
	}
	var d RespDecodeBuf
	got, err := readResponseFrame(bytes.NewReader(frame), &d)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(resps) {
		t.Fatalf("got %d responses", len(got))
	}
	if got[0].Version != resps[0].Version || got[0].Status != StatusOK {
		t.Fatal("response 0 mismatch")
	}
	if got[1].Status != StatusNotFound {
		t.Fatal("response 1 mismatch")
	}
	if len(got[2].Cols) != 3 || string(got[2].Cols[2]) != "ccc" {
		t.Fatalf("response 2 mismatch: %+v", got[2])
	}
	if len(got[3].Pairs) != 2 || string(got[3].Pairs[0].Key) != "k1" || string(got[3].Pairs[0].Cols[0]) != "v1" {
		t.Fatalf("response 3 mismatch: %+v", got[3])
	}
}

func TestRequestQuick(t *testing.T) {
	f := func(key, data []byte, col uint8, n uint16) bool {
		reqs := []Request{
			{Op: OpPut, Key: key, Puts: []ColData{{Col: int(col), Data: data}}},
			{Op: OpGetRange, Key: key, N: int(n)},
		}
		frame, err := AppendTaggedRequests(nil, 1, reqs)
		if err != nil {
			return len(key) > 0xffff // only oversized keys may fail
		}
		var d DecodeBuf
		got, err := readRequestFrame(bytes.NewReader(frame), &d)
		if err != nil || len(got) != 2 {
			return false
		}
		return bytes.Equal(got[0].Key, key) && got[0].Puts[0].Col == int(col) &&
			bytes.Equal(got[0].Puts[0].Data, data) && got[1].N == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncatedFrameErrors(t *testing.T) {
	full, err := AppendTaggedRequests(nil, 1, []Request{{Op: OpGet, Key: []byte("k")}})
	if err != nil {
		t.Fatal(err)
	}
	var d DecodeBuf
	for cut := 0; cut < len(full); cut++ {
		_, err := readRequestFrame(bytes.NewReader(full[:cut]), &d)
		if err == nil {
			t.Fatalf("cut %d: expected error", cut)
		}
	}
}

func TestUnknownOpcodeErrors(t *testing.T) {
	b, err := AppendTaggedRequests(nil, 1, []Request{{Op: OpGet, Key: []byte("k")}})
	if err != nil {
		t.Fatal(err)
	}
	b[12] = 99 // clobber the opcode (8B tagged header + 4B count)
	var d DecodeBuf
	if _, err := readRequestFrame(bytes.NewReader(b), &d); err == nil {
		t.Fatal("expected error for unknown opcode")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var hdr [8]byte
	hdr[3] = 0xff // marker bit plus a huge length
	var d DecodeBuf
	_, err := readRequestFrame(bytes.NewReader(hdr[:]), &d)
	if err == nil {
		t.Fatal("expected error for oversized frame")
	}
}

// A length word without the tagged-frame marker bit means the stream is
// desynchronised or foreign; the header reader must refuse it rather than
// misread the next word as a tag.
func TestUnmarkedHeaderRejected(t *testing.T) {
	frame, err := AppendTaggedRequests(nil, 3, []Request{{Op: OpGet, Key: []byte("k")}})
	if err != nil {
		t.Fatal(err)
	}
	frame[3] &^= 0x80 // clear the marker bit, leaving an honest length
	if _, _, err := ReadTaggedHeader(bytes.NewReader(frame)); !errors.Is(err, errNotV2) {
		t.Fatalf("unmarked header: err=%v, want errNotV2", err)
	}
}
