package kvstore

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// chainCfg opens a store over mem with logging armed and every background
// loop disabled, so tests control exactly what reaches the logs.
func chainCfg(mem vfs.FS) Config {
	return Config{Dir: "d", FS: mem, Workers: 2, SyncWrites: true,
		FlushInterval: time.Hour, MaintainEvery: -1}
}

// TestV1DirectoryRecovers is the end-to-end upgrade path: a directory whose
// only log predates the v2 format recovers exactly as it used to (unlinked
// records merge unvalidated), and the first cross-worker write over the
// recovered value anchors the chain in the new log.
func TestV1DirectoryRecovers(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	// A pre-v2 incarnation's log: worker 0 inserted col 0 then put col 1.
	v1 := []wal.Record{
		{TS: 5, Op: wal.OpInsert, Key: []byte("k"), Puts: []value.ColPut{{Col: 0, Data: []byte("a")}}},
		{TS: 7, Op: wal.OpPut, Key: []byte("k"), Puts: []value.ColPut{{Col: 1, Data: []byte("b")}}},
	}
	if err := wal.WriteLegacyLogFS(mem, filepath.Join("d", wal.LogFileName(0, 1)), v1); err != nil {
		t.Fatal(err)
	}
	s, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.RecoveryStats(); st.BrokenChains != 0 || st.MissingLogs != 0 {
		t.Fatalf("v1 recovery stats = %+v, want zero", st)
	}
	cols, ok := s.Get([]byte("k"), nil)
	if !ok || len(cols) != 2 || string(cols[0]) != "a" || string(cols[1]) != "b" {
		t.Fatalf("v1 records did not replay byte-identically: %q ok=%v", cols, ok)
	}
	// Worker 1 writes over the value worker 0's log produced: a cross-log
	// handoff, so the new record must anchor — after the old log vanishes,
	// recovery still rebuilds the whole value from worker 1's log.
	s.Put(1, []byte("k"), []value.ColPut{{Col: 1, Data: []byte("B")}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Remove(filepath.Join("d", wal.LogFileName(0, 1))); err != nil {
		t.Fatal(err)
	}
	mem.SyncDir("d")
	r, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cols, ok = r.Get([]byte("k"), nil)
	if !ok || len(cols) != 2 || string(cols[0]) != "a" || string(cols[1]) != "B" {
		t.Fatalf("handoff anchor did not carry the value: %q ok=%v (stats %+v)", cols, ok, r.RecoveryStats())
	}
	if st := r.RecoveryStats(); st.BrokenChains != 0 {
		t.Fatalf("BrokenChains = %d on an anchored rebuild, want 0", st.BrokenChains)
	}
}

// TestBrokenChainRollsBackToAnchoredPrefix hand-crafts logs whose chain is
// broken mid-key and checks replay refuses the dangling suffix: the key
// holds exactly its last anchored prefix, never a merge onto the wrong
// base, and the rollback is counted.
func TestBrokenChainRollsBackToAnchoredPrefix(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	set, err := wal.OpenSetFS(mem, "d", 1, 1, true, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w := set.Writer(0)
	// Key "whole": its anchor will be in the vanished generation — every
	// surviving record dangles, so it must roll back to absence.
	w.Append(&wal.Record{TS: 5, Op: wal.OpInsert, Key: []byte("whole"), Puts: []value.ColPut{{Col: 0, Data: []byte("lost")}}})
	if err := set.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	set2, err := wal.OpenSetFS(mem, "d", 1, 2, true, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w = set2.Writer(0)
	w.Append(&wal.Record{TS: 9, Op: wal.OpPut, Prev: 5, Key: []byte("whole"), Puts: []value.ColPut{{Col: 1, Data: []byte("dangling")}}})
	// Key "part": anchored in the surviving generation, then one good link
	// and one broken link (its prev names a version that never replays).
	w.Append(&wal.Record{TS: 10, Op: wal.OpInsert, Key: []byte("part"), Puts: []value.ColPut{{Col: 0, Data: []byte("x")}}})
	w.Append(&wal.Record{TS: 12, Op: wal.OpPut, Prev: 10, Key: []byte("part"), Puts: []value.ColPut{{Col: 1, Data: []byte("y")}}})
	w.Append(&wal.Record{TS: 14, Op: wal.OpPut, Prev: 13, Key: []byte("part"), Puts: []value.ColPut{{Col: 0, Data: []byte("BAD")}}})
	if err := set2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := set2.Close(); err != nil {
		t.Fatal(err)
	}
	// The adversity: generation 1 vanishes wholesale.
	if err := mem.Remove(filepath.Join("d", wal.LogFileName(0, 1))); err != nil {
		t.Fatal(err)
	}
	mem.SyncDir("d")

	s, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Get([]byte("whole"), nil); ok {
		t.Error("key with no surviving anchor recovered non-absent: dangling record was applied")
	}
	cols, ok := s.Get([]byte("part"), nil)
	if !ok || len(cols) != 2 || string(cols[0]) != "x" || string(cols[1]) != "y" {
		t.Errorf("partially-anchored key = %q ok=%v, want exactly the anchored prefix {x, y}", cols, ok)
	}
	if v, ok := s.GetValue([]byte("part")); ok && v.Version() != 12 {
		t.Errorf("anchored prefix version = %d, want 12", v.Version())
	}
	if st := s.RecoveryStats(); st.BrokenChains != 2 {
		t.Errorf("BrokenChains = %d, want 2 (both keys had a broken link)", st.BrokenChains)
	}
}

// TestHandoffAnchorAllocs pins the cross-log handoff write path at two
// allocations per put: the packed value plus the column-complete anchor's
// ColPut slice. The plain logged path stays at one (TestPutSimpleLoggedAllocs).
func TestHandoffAnchorAllocs(t *testing.T) {
	mem := vfs.NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(chainCfg(mem))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := []byte("pingpong")
	data := []byte("some-column-data")
	puts := []value.ColPut{{Col: 0, Data: data}}
	// Warm the log buffers and the tree path so steady state is measured.
	for i := 0; i < 300; i++ {
		s.Put(i%2, key, puts)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Each iteration alternates workers, so every put replaces a value
	// stamped through the other worker's log: two handoff-anchor puts.
	allocs := testing.AllocsPerRun(200, func() {
		s.Put(0, key, puts)
		s.Put(1, key, puts)
	})
	if allocs > 4 {
		t.Fatalf("handoff-anchor Put allocates %.1f per pair (%.1f per put), want <= 2 per put", allocs, allocs/2)
	}
}
