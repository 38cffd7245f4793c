package kvstore

import (
	"os"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/wal"
)

// TestExpiredBaseNotResurrected pins the write-side half of lazy expiry: a
// put over a lazily-expired value builds on an absent base, so a partial-
// column put must not revive the dead value's other columns — in memory and
// across recovery (the implicit remove is logged ahead of the put).
func TestExpiredBaseNotResurrected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	past := nowNanos() - 1
	s.PutTTL(0, []byte("k"), []value.ColPut{
		{Col: 0, Data: []byte("col0-old")},
		{Col: 1, Data: []byte("col1-secret")},
	}, past)
	// The key reads as absent; a partial put of column 0 lands on it.
	if _, ok := s.Get([]byte("k"), nil); ok {
		t.Fatal("expired key visible")
	}
	s.Put(0, []byte("k"), []value.ColPut{{Col: 0, Data: []byte("col0-new")}})

	check := func(st *Store, label string) {
		t.Helper()
		cols, ok := st.Get([]byte("k"), nil)
		if !ok {
			t.Fatalf("%s: key missing", label)
		}
		if len(cols) != 1 || string(cols[0]) != "col0-new" {
			t.Fatalf("%s: got %q, want only col0-new (dead col1 must not resurrect)", label, cols)
		}
		v, _ := st.Tree().Get([]byte("k"))
		if v.ExpiresAt() != 0 {
			t.Fatalf("%s: plain put kept the dead value's expiry %d", label, v.ExpiresAt())
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r, "recovered")
}

// TestExpiredBaseBatch is TestExpiredBaseNotResurrected through the batched
// put path, mixing expired and live bases in one batch.
func TestExpiredBaseBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	past, future := nowNanos()-1, nowNanos()+uint64(time.Hour)
	s.PutTTL(0, []byte("dead"), []value.ColPut{
		{Col: 0, Data: []byte("d0")}, {Col: 1, Data: []byte("d1")},
	}, past)
	s.PutTTL(0, []byte("live"), []value.ColPut{
		{Col: 0, Data: []byte("l0")}, {Col: 1, Data: []byte("l1")},
	}, future)
	keys := [][]byte{[]byte("dead"), []byte("live")}
	puts := [][]value.ColPut{
		{{Col: 0, Data: []byte("d0-new")}},
		{{Col: 0, Data: []byte("l0-new")}},
	}
	s.PutBatchInto(0, keys, puts, new(BatchScratch))

	check := func(st *Store, label string) {
		t.Helper()
		cols, ok := st.Get([]byte("dead"), nil)
		if !ok || len(cols) != 1 || string(cols[0]) != "d0-new" {
			t.Fatalf("%s: dead-base key: %q ok=%v, want only d0-new", label, cols, ok)
		}
		cols, ok = st.Get([]byte("live"), nil)
		if !ok || len(cols) != 2 || string(cols[0]) != "l0-new" || string(cols[1]) != "l1" {
			t.Fatalf("%s: live-base key: %q ok=%v, want [l0-new l1]", label, cols, ok)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r, "recovered")
}

// TestCleanDropThenPartialPutRecovery pins the insert-record anchoring
// (wal.OpInsert): a clean drop (TTL sweep or eviction) writes no WAL
// record, so the dropped value's put records survive in the log; the first
// write after the drop executes against nil and must therefore replay as a
// replacement — otherwise recovery merges the dropped value's stale columns
// into the new one, fabricating a state no serial execution produced. This
// is the exact divergence the end-to-end drive caught: live col0-only,
// recovered col0+stale columns.
func TestCleanDropThenPartialPutRecovery(t *testing.T) {
	for _, drop := range []string{"sweep", "evict"} {
		t.Run(drop, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(Config{Dir: dir, Workers: 2, MaintainEvery: -1, FlushInterval: time.Hour, MaxBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			exp := nowNanos() - 1 // already lapsed
			if drop == "evict" {
				exp = nowNanos() + uint64(time.Hour)
			}
			s.PutTTL(0, []byte("k"), []value.ColPut{
				{Col: 0, Data: []byte("old0")},
				{Col: 1, Data: []byte("stale-secret")},
				{Col: 5, Data: []byte("stale-tail")},
			}, exp)
			switch drop {
			case "sweep":
				s.cacheMaintain() // physically removes the lapsed value
			case "evict":
				if !s.evictKey([]byte("k")) {
					t.Fatal("evict failed")
				}
			}
			if _, ok := s.tree.Get([]byte("k")); ok {
				t.Fatal("key not dropped")
			}
			// The first write after the drop: a partial, single-column put.
			ver := s.Put(1, []byte("k"), []value.ColPut{{Col: 0, Data: []byte("fresh")}})
			check := func(st *Store, label string) {
				t.Helper()
				cols, ok := st.Get([]byte("k"), nil)
				if !ok || len(cols) != 1 || string(cols[0]) != "fresh" {
					t.Fatalf("%s: got %q ok=%v, want exactly [fresh] (no stale columns)", label, cols, ok)
				}
				v, _ := st.Tree().Get([]byte("k"))
				if v.Version() != ver {
					t.Fatalf("%s: version %d, want %d", label, v.Version(), ver)
				}
			}
			check(s, "live")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(Config{Dir: dir, Workers: 2, MaintainEvery: -1, FlushInterval: time.Hour, MaxBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			check(r, "recovered")
		})
	}
}

// TestCleanDropThenBatchPutRecovery is the batched-write variant: the batch
// mixes a post-drop insert with a plain update, and recovery must keep the
// insert a replacement and the update a merge.
func TestCleanDropThenBatchPutRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s.Put(0, []byte("dropped"), []value.ColPut{
		{Col: 0, Data: []byte("a0")}, {Col: 3, Data: []byte("a3")},
	})
	s.Put(0, []byte("kept"), []value.ColPut{
		{Col: 0, Data: []byte("b0")}, {Col: 1, Data: []byte("b1")},
	})
	if !s.evictKey([]byte("dropped")) {
		t.Fatal("evict failed")
	}
	s.PutBatchInto(0, [][]byte{[]byte("dropped"), []byte("kept")}, [][]value.ColPut{
		{{Col: 0, Data: []byte("new0")}},
		{{Col: 0, Data: []byte("b0-new")}},
	}, new(BatchScratch))
	check := func(st *Store, label string) {
		t.Helper()
		cols, ok := st.Get([]byte("dropped"), nil)
		if !ok || len(cols) != 1 || string(cols[0]) != "new0" {
			t.Fatalf("%s: dropped key %q ok=%v, want exactly [new0]", label, cols, ok)
		}
		cols, ok = st.Get([]byte("kept"), nil)
		if !ok || len(cols) != 2 || string(cols[0]) != "b0-new" || string(cols[1]) != "b1" {
			t.Fatalf("%s: kept key %q ok=%v, want [b0-new b1]", label, cols, ok)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(Config{Dir: dir, Workers: 1, MaintainEvery: -1, FlushInterval: time.Hour, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r, "recovered")
}

// TestCasPutTreatsExpiredAsAbsent pins the CAS protocol over lazy expiry:
// reads report an expired key absent, so create-if-absent (expect 0) must
// succeed over it — not conflict forever on a version no read can observe —
// and a stale expect equal to the dead value's version must fail.
func TestCasPutTreatsExpiredAsAbsent(t *testing.T) {
	s, err := Open(Config{MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	deadVer := s.PutTTL(0, []byte("k"), []value.ColPut{{Col: 0, Data: []byte("old")}}, nowNanos()-1)

	// The dead version is not CASable — the key is "absent".
	if _, ok := s.CasPut(0, []byte("k"), deadVer, []value.ColPut{{Col: 0, Data: []byte("x")}}); ok {
		t.Fatal("CAS against a dead value's version succeeded")
	}
	// The conflict reports current version 0 (absent), so the documented
	// re-read-and-retry protocol converges on expect 0.
	cur, ok := s.CasPut(0, []byte("k"), 5, nil)
	if ok || cur != 0 {
		t.Fatalf("conflict over expired key reported version %d, want 0", cur)
	}
	ver, ok := s.CasPut(0, []byte("k"), 0, []value.ColPut{{Col: 0, Data: []byte("new")}})
	if !ok {
		t.Fatal("create-if-absent over an expired key failed")
	}
	if ver <= deadVer {
		t.Fatalf("new version %d not above the dead value's %d", ver, deadVer)
	}
	cols, ok := s.Get([]byte("k"), nil)
	if !ok || len(cols) != 1 || string(cols[0]) != "new" {
		t.Fatalf("after CAS: %q ok=%v", cols, ok)
	}
}

// TestTouchRecordStandsAlone pins Touch's column-complete logging: even if
// the log holding the key's original put vanishes wholesale (ROADMAP's
// vanished-log hole, reproduced by TestPartialColumnReplayHole for
// partial-column puts), the touch record alone rebuilds the full value —
// Touch must not widen that hole.
func TestTouchRecordStandsAlone(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 2, SyncWrites: true, FlushInterval: time.Hour, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	future := nowNanos() + uint64(time.Hour)
	s.Put(0, []byte("k"), []value.ColPut{
		{Col: 0, Data: []byte("c0")}, {Col: 1, Data: []byte("c1")},
	})
	if _, ok := s.Touch(1, []byte("k"), future); !ok { // different worker → different log
		t.Fatal("touch failed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Worker 0's log (holding the original put) vanishes wholesale.
	files, err := wal.ListLogFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.Worker == 0 {
			if err := os.Remove(f.Path); err != nil {
				t.Fatal(err)
			}
		}
	}
	r, err := Open(Config{Dir: dir, Workers: 2, SyncWrites: true, FlushInterval: time.Hour, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cols, ok := r.Get([]byte("k"), nil)
	if !ok || len(cols) != 2 || string(cols[0]) != "c0" || string(cols[1]) != "c1" {
		t.Fatalf("touch record did not stand alone: %q ok=%v, want [c0 c1]", cols, ok)
	}
	v, _ := r.Tree().Get([]byte("k"))
	if v.ExpiresAt() != future {
		t.Fatalf("recovered expiry %d, want %d", v.ExpiresAt(), future)
	}
}
