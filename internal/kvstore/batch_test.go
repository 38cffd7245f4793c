package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/value"
)

func TestGetBatch(t *testing.T) {
	s := openMem(t)
	for i := 0; i < 500; i++ {
		s.Put(0, []byte(fmt.Sprintf("k%03d", i)), []value.ColPut{
			{Col: 0, Data: []byte(fmt.Sprintf("a%d", i))},
			{Col: 1, Data: []byte(fmt.Sprintf("b%d", i))},
		})
	}
	keys := [][]byte{
		[]byte("k010"), []byte("missing"), []byte("k499"), []byte("k000"), []byte("k010"),
	}
	var sc BatchScratch
	vals, found := s.GetBatchInto(keys, &sc)
	wantFound := []bool{true, false, true, true, true}
	wantCol := []string{"b10", "", "b499", "b0", "b10"}
	for i := range keys {
		if found[i] != wantFound[i] {
			t.Fatalf("key %q found=%v want %v", keys[i], found[i], wantFound[i])
		}
		if found[i] && !bytes.Equal(vals[i].Col(1), []byte(wantCol[i])) {
			t.Fatalf("key %q col = %q want %q", keys[i], vals[i].Col(1), wantCol[i])
		}
	}
}

func TestGetBatchAllColumns(t *testing.T) {
	s := openMem(t)
	s.Put(0, []byte("k"), []value.ColPut{{Col: 0, Data: []byte("x")}, {Col: 2, Data: []byte("z")}})
	var sc BatchScratch
	vals, found := s.GetBatchInto([][]byte{[]byte("k")}, &sc)
	if !found[0] {
		t.Fatal("batch all-cols: key not found")
	}
	cols := AppendCols(nil, vals[0], nil)
	if len(cols) != 3 || string(cols[0]) != "x" || cols[1] != nil || string(cols[2]) != "z" {
		t.Fatalf("columns wrong: %q", cols)
	}
}
