package wal

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/value"
	"repro/internal/vfs"
)

// recordsEqual compares the serialized fields of two records (everything
// but the recovery-populated Worker and the format-derived Prev/Unlinked).
func recordsEqual(a, b Record) bool {
	if a.TS != b.TS || a.Op != b.Op || !bytes.Equal(a.Key, b.Key) || a.Expiry != b.Expiry {
		return false
	}
	if len(a.Puts) != len(b.Puts) {
		return false
	}
	for i := range a.Puts {
		if a.Puts[i].Col != b.Puts[i].Col || !bytes.Equal(a.Puts[i].Data, b.Puts[i].Data) {
			return false
		}
	}
	return true
}

// TestV1LogRecoversUnderV2Reader lays down a genuine MTLOG1 log (via the
// retained legacy encoder) and checks the v2 reader recovers exactly the
// records the v1 reader would have: same field values, same cutoff, with
// every record flagged Unlinked so replay merges it unvalidated.
func TestV1LogRecoversUnderV2Reader(t *testing.T) {
	mem := vfs.NewMemFS()
	dir := "d"
	if err := mem.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{TS: 5, Op: OpInsert, Key: []byte("a"), Puts: []value.ColPut{{Col: 0, Data: []byte("a0")}}},
		{TS: 7, Op: OpPut, Key: []byte("a"), Puts: []value.ColPut{{Col: 1, Data: []byte("a1")}}},
		{TS: 9, Op: OpPutTTL, Key: []byte("t"), Puts: []value.ColPut{{Col: 0, Data: []byte("tv")}}, Expiry: 12345},
		{TS: 11, Op: OpRemove, Key: []byte("gone")},
	}
	logPath := filepath.Join(dir, LogFileName(0, 1))
	if err := WriteLegacyLogFS(mem, logPath, append(want, Record{TS: 20, Op: OpMark})); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverDirFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cutoff != 20 || res.MaxTS != 20 {
		t.Fatalf("cutoff/maxTS = %d/%d, want 20/20", res.Cutoff, res.MaxTS)
	}
	if res.MissingLogs != 0 {
		t.Fatalf("MissingLogs = %d for a pre-logset directory, want 0 (check disabled)", res.MissingLogs)
	}
	if len(res.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(res.Records), len(want))
	}
	for i, r := range res.Records {
		if !recordsEqual(r, want[i]) {
			t.Errorf("record %d = %+v, want fields of %+v", i, r, want[i])
		}
		if !r.Unlinked {
			t.Errorf("record %d parsed from a v1 log is not Unlinked", i)
		}
		if r.Prev != 0 {
			t.Errorf("record %d has Prev = %d, want 0 (v1 carries no links)", i, r.Prev)
		}
		if r.Worker != 0 {
			t.Errorf("record %d Worker = %d, want 0 (the log's worker)", i, r.Worker)
		}
	}
}

// TestMixedV1V2DirReplays puts a v1 log and a v2 log in one directory —
// the upgrade-in-place picture: an old generation written before the
// format change, a new generation after — and checks both parse into one
// consistent record stream with per-format link semantics.
func TestMixedV1V2DirReplays(t *testing.T) {
	mem := vfs.NewMemFS()
	dir := "d"
	if err := mem.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Worker 0, generation 1: legacy format. The trailing mark keeps this
	// quieter log from dragging the cutoff below the v2 log's records.
	v1recs := []Record{
		{TS: 10, Op: OpPut, Key: []byte("k"), Puts: []value.ColPut{{Col: 0, Data: []byte("old")}}},
		{TS: 50, Op: OpMark},
	}
	if err := WriteLegacyLogFS(mem, filepath.Join(dir, LogFileName(0, 1)), v1recs); err != nil {
		t.Fatal(err)
	}
	// Worker 1, generation 1: current format, a linked put chained to the
	// v1 record's version.
	w, err := newWriter(mem, dir, 1, 1, true, DefaultFlushInterval, true)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(&Record{TS: 20, Op: OpPut, Prev: 10, Key: []byte("k"), Puts: []value.ColPut{{Col: 1, Data: []byte("new")}}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverDirFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cutoff != 20 {
		t.Fatalf("cutoff = %d, want 20 (min of 50 and 20)", res.Cutoff)
	}
	byTS := map[uint64]Record{}
	for _, r := range res.Records {
		byTS[r.TS] = r
	}
	if len(byTS) != 2 {
		t.Fatalf("recovered %d records, want 2 (ts 10 and 20): %+v", len(byTS), res.Records)
	}
	r10, r20 := byTS[10], byTS[20]
	if !r10.Unlinked || r10.Worker != 0 {
		t.Errorf("v1 record: Unlinked=%v Worker=%d, want true/0", r10.Unlinked, r10.Worker)
	}
	if r20.Unlinked || r20.Prev != 10 || r20.Worker != 1 {
		t.Errorf("v2 record: Unlinked=%v Prev=%d Worker=%d, want false/10/1", r20.Unlinked, r20.Prev, r20.Worker)
	}
}

// TestMissingLogDetection checks the logset file distinguishes a vanished
// log (file absent: counted) from a worker that never logged (file present,
// possibly empty: not counted), and that rotation keeps the expectation
// consistent with what DropBefore leaves behind.
func TestMissingLogDetection(t *testing.T) {
	mem := vfs.NewMemFS()
	dir := "d"
	if err := mem.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	set, err := OpenSetFS(mem, dir, 3, 1, true, DefaultFlushInterval)
	if err != nil {
		t.Fatal(err)
	}
	set.Writer(0).Append(&Record{TS: 1, Op: OpPut, Key: []byte("a"), Puts: []value.ColPut{{Col: 0, Data: []byte("v")}}})
	// Worker 1 logs; worker 2 never does — its file exists but is empty.
	set.Writer(1).Append(&Record{TS: 2, Op: OpPut, Key: []byte("b"), Puts: []value.ColPut{{Col: 0, Data: []byte("v")}}})
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverDirFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissingLogs != 0 {
		t.Fatalf("intact directory: MissingLogs = %d, want 0", res.MissingLogs)
	}
	// The adversity: worker 1's log vanishes wholesale.
	if err := mem.Remove(filepath.Join(dir, LogFileName(1, 1))); err != nil {
		t.Fatal(err)
	}
	mem.SyncDir(dir)
	res, err = RecoverDirFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissingLogs != 1 {
		t.Fatalf("after removing worker 1's log: MissingLogs = %d, want 1", res.MissingLogs)
	}

	// Rotation advances the expectation before any reclamation: dropping
	// the old generation after a rotate must not read as missing logs.
	mem2 := vfs.NewMemFS()
	if err := mem2.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	set2, err := OpenSetFS(mem2, dir, 2, 1, true, DefaultFlushInterval)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := set2.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := set2.DropBefore(gen); err != nil {
		t.Fatal(err)
	}
	mem2.SyncDir(dir)
	if err := set2.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = RecoverDirFS(mem2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissingLogs != 0 {
		t.Fatalf("after rotate+drop: MissingLogs = %d, want 0", res.MissingLogs)
	}
}

// FuzzRecordV2 fuzzes the versioned record parser, seeded from both the v2
// and the legacy v1 encoder. Properties: the parser never panics, never
// consumes more bytes than given, and any record it accepts round-trips
// through the matching encoder back to the same bytes (so parse ∘ encode is
// the identity on accepted inputs — a corrupt record can be rejected but
// never silently rewritten).
func FuzzRecordV2(f *testing.F) {
	puts := []value.ColPut{{Col: 0, Data: []byte("col0")}, {Col: 3, Data: nil}}
	seeds := [][]byte{
		appendRecord(nil, 7, 3, OpPut, []byte("key"), puts, 0),
		appendRecord(nil, 9, 0, OpPutTTL, []byte("ttl"), puts, 1234),
		appendRecord(nil, 11, 0, OpInsert, []byte("ins"), puts, 0),
		appendRecord(nil, 13, 0, OpRemove, []byte("gone"), nil, 0),
		appendRecord(nil, 15, 0, OpMark, nil, nil, 0),
		appendRecordV1(nil, 7, OpPut, []byte("key"), puts, 0),
		appendRecordV1(nil, 9, OpPutTTL, []byte("ttl"), puts, 1234),
		appendRecordV1(nil, 11, OpInsert, []byte("ins"), puts, 0),
	}
	for _, s := range seeds {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, b []byte, v1 bool) {
		r, n := parseRecord(b, v1)
		if n == 0 {
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		var re []byte
		if v1 {
			re = appendRecordV1(nil, r.TS, r.Op, r.Key, r.Puts, r.Expiry)
		} else {
			re = appendRecord(nil, r.TS, r.Prev, r.Op, r.Key, r.Puts, r.Expiry)
		}
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, b[:n])
		}
		if v1 != r.Unlinked {
			t.Fatalf("v1=%v but Unlinked=%v", v1, r.Unlinked)
		}
	})
}
