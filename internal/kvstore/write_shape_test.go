package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/wal"
)

// Bases a write can execute against.
const (
	baseAbsent  = iota
	baseSame    // live, stamped by the writing worker (0)
	baseOther   // live, stamped by worker 1: a cross-log handoff
	baseExpired // lazily expired: physically present, reads as absent
)

var shapeBaseNames = [...]string{"absent", "same", "other", "expired"}

// writeShape is what one write must leave behind: whether it applied, and
// if so the log record it appended. linked means the record's prev names
// the replaced value's version; otherwise prev is 0 (insert or anchor).
type writeShape struct {
	ok     bool
	op     wal.Op
	linked bool
	cols   []int
	ttl    bool // record carries the case's expiry
}

// shapeKind runs one kind of write of key through worker 0 and returns the
// version it reported and whether it applied. live is the value a reader
// saw before the write (nil when absent or expired).
type shapeKind struct {
	name string
	run  func(s *Store, key []byte, live *value.Value) (uint64, bool)
	// want is indexed by base.
	want [4]writeShape
}

// TestWriteShape pins, for every write kind against every base, the log
// record the write appends (op, prev, column set, expiry), the version and
// ok flag it returns, and the bytes_live delta it causes. It is the contract
// the write path's log format, chain anchoring and accounting keep.
func TestWriteShape(t *testing.T) {
	exp := nowNanos() + uint64(time.Hour)
	delta := []value.ColPut{{Col: 0, Data: []byte("n0")}}
	loaded := [][]byte{[]byte("l0"), []byte("l1"), []byte("l2")}

	insert := func(op wal.Op, ttl bool) writeShape {
		return writeShape{ok: true, op: op, cols: []int{0}, ttl: ttl}
	}
	linked := func(op wal.Op, ttl bool) writeShape {
		return writeShape{ok: true, op: op, linked: true, cols: []int{0}, ttl: ttl}
	}
	anchor := func(op wal.Op, ttl bool) writeShape {
		return writeShape{ok: true, op: op, cols: []int{0, 1}, ttl: ttl}
	}
	putShapes := [4]writeShape{insert(wal.OpInsert, false), linked(wal.OpPut, false), anchor(wal.OpPut, false), insert(wal.OpInsert, false)}
	ttlShapes := [4]writeShape{insert(wal.OpInsertTTL, true), linked(wal.OpPutTTL, true), anchor(wal.OpPutTTL, true), insert(wal.OpInsertTTL, true)}
	declined := writeShape{}
	loadShape := writeShape{ok: true, op: wal.OpInsertTTL, cols: []int{0, 1, 2}, ttl: true}

	kinds := []shapeKind{
		{"Put", func(s *Store, k []byte, _ *value.Value) (uint64, bool) {
			return s.Put(0, k, delta), true
		}, putShapes},
		{"PutTTL", func(s *Store, k []byte, _ *value.Value) (uint64, bool) {
			return s.PutTTL(0, k, delta, exp), true
		}, ttlShapes},
		{"PutTTL0", func(s *Store, k []byte, _ *value.Value) (uint64, bool) {
			return s.PutTTL(0, k, delta, 0), true
		}, ttlShapes},
		{"Touch", func(s *Store, k []byte, _ *value.Value) (uint64, bool) {
			return s.Touch(0, k, exp)
		}, [4]writeShape{declined, anchor(wal.OpPutTTL, true), anchor(wal.OpPutTTL, true), declined}},
		{"CasMatch", func(s *Store, k []byte, live *value.Value) (uint64, bool) {
			return s.CasPut(0, k, live.Version(), delta)
		}, putShapes},
		{"CasMismatch", func(s *Store, k []byte, live *value.Value) (uint64, bool) {
			return s.CasPut(0, k, live.Version()+1000, delta)
		}, [4]writeShape{declined, declined, declined, declined}},
		{"Load", func(s *Store, k []byte, live *value.Value) (uint64, bool) {
			v := s.installLoaded(0, k, loaded, exp)
			return v.Version(), v != live
		}, [4]writeShape{loadShape, declined, declined, loadShape}},
		{"Batch", func(s *Store, k []byte, _ *value.Value) (uint64, bool) {
			keys := [][]byte{[]byte("a-neighbor"), k, []byte("z-neighbor")}
			puts := [][]value.ColPut{delta, delta, delta}
			var sc BatchScratch
			return s.PutBatchInto(0, keys, puts, &sc)[1], true
		}, putShapes},
	}

	for _, kind := range kinds {
		for base, want := range kind.want {
			t.Run(fmt.Sprintf("%s/%s", kind.name, shapeBaseNames[base]), func(t *testing.T) {
				checkWriteShape(t, kind, base, want, exp)
			})
		}
	}
}

func checkWriteShape(t *testing.T, kind shapeKind, base int, want writeShape, exp uint64) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Workers: 2, MaintainEvery: -1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("m-key")
	baseCols := []value.ColPut{{Col: 0, Data: []byte("b0")}, {Col: 1, Data: []byte("b1")}}
	setup := 0
	switch base {
	case baseSame:
		s.Put(0, key, baseCols)
		setup++
	case baseOther:
		s.Put(1, key, baseCols)
		setup++
	case baseExpired:
		s.PutTTL(0, key, baseCols, nowNanos()-1)
		setup++
	}
	// The batch kind's neighbors: a linked update and an insert around key.
	s.Put(0, []byte("a-neighbor"), baseCols)

	// bytes_live must move by exactly the size change of every key the
	// write touched (the batch kind's neighbors included).
	touched := [][]byte{key, []byte("a-neighbor"), []byte("z-neighbor")}
	sizeDelta := 0
	for _, k := range touched {
		v, _ := s.Tree().Get(k)
		sizeDelta -= v.Size()
	}
	old, _ := s.Tree().Get(key)
	var live *value.Value
	if old != nil && !expired(old) {
		live = old
	}
	before := s.CacheStats().BytesLive
	ver, ok := kind.run(s, key, live)
	after := s.CacheStats().BytesLive
	for _, k := range touched {
		v, _ := s.Tree().Get(k)
		sizeDelta += v.Size()
	}
	nv, _ := s.Tree().Get(key)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if ok != want.ok {
		t.Fatalf("ok = %v, want %v", ok, want.ok)
	}
	res, err := wal.RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keyRecs []wal.Record
	for _, r := range res.Records {
		if bytes.Equal(r.Key, key) {
			keyRecs = append(keyRecs, r)
		}
	}

	if !want.ok {
		if ver != live.Version() && kind.name != "Touch" {
			t.Fatalf("declined write returned version %d, want the live version %d", ver, live.Version())
		}
		if kind.name == "Touch" && ver != 0 {
			t.Fatalf("declined touch returned version %d, want 0", ver)
		}
		if len(keyRecs) != setup {
			t.Fatalf("declined write logged: %d records for the key, want %d", len(keyRecs), setup)
		}
		if nv != old {
			t.Fatal("declined write replaced the value")
		}
		if after != before || sizeDelta != 0 {
			t.Fatalf("declined write moved bytes_live by %d (sizes by %d)", after-before, sizeDelta)
		}
		return
	}

	if nv == nil || nv.Version() != ver || ver <= old.Version() {
		t.Fatalf("returned version %d; stored %v over base version %d", ver, nv, old.Version())
	}
	if after-before != int64(sizeDelta) {
		t.Fatalf("bytes_live delta %d, want %d", after-before, sizeDelta)
	}
	var rec *wal.Record
	for i := range keyRecs {
		if keyRecs[i].TS == ver {
			rec = &keyRecs[i]
		}
	}
	if rec == nil || len(keyRecs) != setup+1 {
		t.Fatalf("no single record at version %d among %d key records", ver, len(keyRecs))
	}
	if rec.Worker != 0 || rec.Op != want.op {
		t.Fatalf("record worker %d op %d, want worker 0 op %d", rec.Worker, rec.Op, want.op)
	}
	wantPrev := uint64(0)
	if want.linked {
		wantPrev = old.Version()
	}
	if rec.Prev != wantPrev {
		t.Fatalf("prev = %d, want %d", rec.Prev, wantPrev)
	}
	wantExpiry := uint64(0)
	if want.ttl && kind.name != "PutTTL0" {
		wantExpiry = exp
	}
	if rec.Expiry != wantExpiry || nv.ExpiresAt() != wantExpiry {
		t.Fatalf("record expiry %d, value expiry %d, want %d", rec.Expiry, nv.ExpiresAt(), wantExpiry)
	}
	if len(rec.Puts) != len(want.cols) {
		t.Fatalf("record carries %d columns, want %v", len(rec.Puts), want.cols)
	}
	for i, p := range rec.Puts {
		if p.Col != want.cols[i] || !bytes.Equal(p.Data, nv.Col(p.Col)) {
			t.Fatalf("record column %d = %d:%q, want %d:%q", i, p.Col, p.Data, want.cols[i], nv.Col(want.cols[i]))
		}
	}

	if kind.name == "Batch" {
		checkBatchNeighbors(t, res.Records, ver)
	}
}

// checkBatchNeighbors pins the batch's other two records: a linked update of
// a-neighbor and an insert of z-neighbor, appended around the middle key's
// record in input order.
func checkBatchNeighbors(t *testing.T, recs []wal.Record, mid uint64) {
	var order []string
	for _, r := range recs {
		if r.Worker != 0 {
			continue
		}
		switch k := string(r.Key); {
		case k == "a-neighbor" && r.Op == wal.OpPut:
			if r.Prev == 0 || len(r.Puts) != 1 {
				t.Fatalf("a-neighbor: prev %d, %d columns; want a linked one-column update", r.Prev, len(r.Puts))
			}
			order = append(order, k)
		case k == "z-neighbor":
			if r.Op != wal.OpInsert || len(r.Puts) != 1 {
				t.Fatalf("z-neighbor: op %d, %d columns; want a one-column insert", r.Op, len(r.Puts))
			}
			order = append(order, k)
		case r.TS == mid:
			order = append(order, "mid")
		}
	}
	if fmt.Sprint(order) != "[a-neighbor mid z-neighbor]" {
		t.Fatalf("batch records in log order %v", order)
	}
}
