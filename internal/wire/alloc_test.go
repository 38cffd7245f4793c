package wire

import (
	"bytes"
	"testing"
)

// TestRequestRoundTripAllocFree verifies the scratch-based encode/decode
// path allocates nothing in steady state: requests are framed into a reused
// buffer and parsed back by aliasing it.
func TestRequestRoundTripAllocFree(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: []byte("some-key-1")},
		{Op: OpGet, Key: []byte("some-key-2"), Cols: []int{0, 2}},
		{Op: OpPut, Key: []byte("some-key-3"), Puts: []ColData{{Col: 0, Data: []byte("payload")}, {Col: 1, Data: []byte("more")}}},
		{Op: OpRemove, Key: []byte("some-key-4")},
		{Op: OpGetRange, Key: []byte("some"), N: 10, Cols: []int{1}},
	}
	var enc []byte
	var dec DecodeBuf

	allocs := testing.AllocsPerRun(200, func() {
		out, err := AppendTaggedRequests(enc[:0], 1, reqs)
		if err != nil {
			t.Fatal(err)
		}
		enc = out
		got, err := ParseRequests(enc[8:], &dec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(reqs) || string(got[2].Puts[1].Data) != "more" {
			t.Fatalf("bad decode: %+v", got)
		}
	})
	if allocs != 0 {
		t.Fatalf("request round trip allocates %.1f times per run, want 0", allocs)
	}
}

// TestResponseRoundTripAllocFree is the response-side analogue, covering
// the client's Pending decode path.
func TestResponseRoundTripAllocFree(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, Cols: [][]byte{[]byte("col0"), []byte("col1")}},
		{Status: StatusNotFound},
		{Status: StatusOK, Version: 42},
		{Status: StatusOK, Pairs: []Pair{
			{Key: []byte("k1"), Cols: [][]byte{[]byte("v1")}},
			{Key: []byte("k2"), Cols: [][]byte{[]byte("v2"), []byte("v2b")}},
		}},
	}
	var enc []byte
	var dec RespDecodeBuf

	allocs := testing.AllocsPerRun(200, func() {
		out, err := AppendTaggedResponses(enc[:0], 1, resps)
		if err != nil {
			t.Fatal(err)
		}
		enc = out
		got, err := ParseResponses(enc[8:], &dec)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(resps) || string(got[3].Pairs[1].Cols[1]) != "v2b" {
			t.Fatalf("bad decode: %+v", got)
		}
	})
	if allocs != 0 {
		t.Fatalf("response round trip allocates %.1f times per run, want 0", allocs)
	}
}

// TestScratchDecodeMatchesLegacy cross-checks the aliasing decoders
// against the copying reference decoders over frames carrying every
// request and response shape.
func TestScratchDecodeMatchesLegacy(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: []byte("alpha")},
		{Op: OpGet, Key: []byte("beta"), Cols: []int{3}},
		{Op: OpPut, Key: []byte("gamma"), Puts: []ColData{{Col: 2, Data: []byte("data-2")}}},
		{Op: OpRemove, Key: []byte("delta")},
		{Op: OpGetRange, Key: []byte("eps"), N: 7},
		{Op: OpStats},
	}
	frame, err := AppendTaggedRequests(nil, 1, reqs)
	if err != nil {
		t.Fatal(err)
	}

	legacy, err := parseRequestsCopy(frame[8:])
	if err != nil {
		t.Fatal(err)
	}
	var dec DecodeBuf
	scratch, err := ParseRequests(frame[8:], &dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy) != len(scratch) {
		t.Fatalf("count mismatch: %d vs %d", len(legacy), len(scratch))
	}
	for i := range legacy {
		a, b := legacy[i], scratch[i]
		if a.Op != b.Op || !bytes.Equal(a.Key, b.Key) || a.N != b.N ||
			len(a.Cols) != len(b.Cols) || len(a.Puts) != len(b.Puts) {
			t.Fatalf("request %d mismatch:\n%+v\n%+v", i, a, b)
		}
		for j := range a.Cols {
			if a.Cols[j] != b.Cols[j] {
				t.Fatalf("request %d col %d mismatch", i, j)
			}
		}
		for j := range a.Puts {
			if a.Puts[j].Col != b.Puts[j].Col || !bytes.Equal(a.Puts[j].Data, b.Puts[j].Data) {
				t.Fatalf("request %d put %d mismatch", i, j)
			}
		}
	}

	resps := []Response{
		{Status: StatusOK, Version: 7, Cols: [][]byte{[]byte("c0"), nil, []byte("c2")}},
		{Status: StatusNotFound},
		{Status: StatusConflict, Version: 1 << 40},
		{Status: StatusOK, Pairs: []Pair{
			{Key: []byte("k1"), Cols: [][]byte{[]byte("v1")}},
			{Key: []byte("k2"), Cols: [][]byte{[]byte("v2"), []byte("v2b")}},
		}},
	}
	frame, err = AppendTaggedResponses(nil, 1, resps)
	if err != nil {
		t.Fatal(err)
	}
	legacyResps, err := parseResponsesCopy(frame[8:])
	if err != nil {
		t.Fatal(err)
	}
	var rdec RespDecodeBuf
	scratchResps, err := ParseResponses(frame[8:], &rdec)
	if err != nil {
		t.Fatal(err)
	}
	if len(legacyResps) != len(scratchResps) {
		t.Fatalf("response count mismatch: %d vs %d", len(legacyResps), len(scratchResps))
	}
	for i := range legacyResps {
		a, b := legacyResps[i], scratchResps[i]
		if a.Status != b.Status || a.Version != b.Version ||
			!equalCols(a.Cols, b.Cols) || len(a.Pairs) != len(b.Pairs) {
			t.Fatalf("response %d mismatch:\n%+v\n%+v", i, a, b)
		}
		for j := range a.Pairs {
			if !bytes.Equal(a.Pairs[j].Key, b.Pairs[j].Key) || !equalCols(a.Pairs[j].Cols, b.Pairs[j].Cols) {
				t.Fatalf("response %d pair %d mismatch", i, j)
			}
		}
	}
}

func equalCols(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestDecodeBufReuse verifies that consecutive messages through one
// DecodeBuf don't bleed state into each other (stale Cols/Puts/N fields).
func TestDecodeBufReuse(t *testing.T) {
	var dec DecodeBuf
	first := []Request{
		{Op: OpPut, Key: []byte("a"), Puts: []ColData{{Col: 0, Data: []byte("x")}}},
		{Op: OpGetRange, Key: []byte("b"), N: 9, Cols: []int{1, 2}},
	}
	second := []Request{
		{Op: OpGet, Key: []byte("c")},
		{Op: OpRemove, Key: []byte("d")},
	}
	for _, batch := range [][]Request{first, second, first} {
		enc, err := AppendTaggedRequests(nil, 1, batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseRequests(enc[8:], &dec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			want := batch[i]
			if got[i].Op != want.Op || !bytes.Equal(got[i].Key, want.Key) ||
				got[i].N != want.N || len(got[i].Cols) != len(want.Cols) || len(got[i].Puts) != len(want.Puts) {
				t.Fatalf("batch reuse: request %d decoded as %+v, want %+v", i, got[i], want)
			}
		}
	}
}

// TestForgedCountRejected sends a frame whose batch count is wildly larger
// than the body could hold; the decoders must reject it before sizing any
// buffer (a forged count must not amplify a tiny frame into a huge
// allocation).
func TestForgedCountRejected(t *testing.T) {
	body := []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8}
	var dec DecodeBuf
	if _, err := ParseRequests(body, &dec); err == nil {
		t.Fatal("ParseRequests accepted a forged request count")
	}
	var rdec RespDecodeBuf
	if _, err := ParseResponses(body, &rdec); err == nil {
		t.Fatal("ParseResponses accepted a forged response count")
	}
	// The same body behind a well-formed tagged header.
	frame := append([]byte{byte(4 + len(body)), 0, 0, 0x80, 9, 0, 0, 0}, body...)
	if _, err := readRequestFrame(bytes.NewReader(frame), &dec); err == nil {
		t.Fatal("tagged request frame with a forged count accepted")
	}
	if _, err := readResponseFrame(bytes.NewReader(frame), &rdec); err == nil {
		t.Fatal("tagged response frame with a forged count accepted")
	}
}
