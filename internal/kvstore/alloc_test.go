package kvstore

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/value"
)

// newAllocTestStore returns an in-memory store with background maintenance
// disabled, so AllocsPerRun measurements see only the operation under test.
func newAllocTestStore(t *testing.T, nkeys int) *Store {
	t.Helper()
	s, err := Open(Config{MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for i := 0; i < nkeys; i++ {
		s.PutSimple(0, []byte(fmt.Sprintf("alloc-key-%06d", i)), []byte("column-zero-data"))
	}
	return s
}

// TestGetIntoAllocFree verifies the append-into read path allocates nothing
// in steady state, through both the store and an epoch-registered session.
func TestGetIntoAllocFree(t *testing.T) {
	s := newAllocTestStore(t, 1000)
	sess := s.Session(0)
	defer sess.Close()
	key := []byte("alloc-key-000123")
	cols := []int{0}
	dst := make([][]byte, 0, 4)

	allocs := testing.AllocsPerRun(200, func() {
		var ok bool
		dst, ok = sess.GetInto(key, cols, dst[:0])
		if !ok || len(dst) != 1 || string(dst[0]) != "column-zero-data" {
			t.Fatalf("GetInto: %q %v", dst, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("Session.GetInto allocates %.1f times per run, want 0", allocs)
	}

	allocs = testing.AllocsPerRun(200, func() {
		var ok bool
		dst, ok = s.GetInto(key, nil, dst[:0])
		if !ok || len(dst) != 1 {
			t.Fatalf("GetInto all-cols: %q %v", dst, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("Store.GetInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestGetBatchIntoAllocFree verifies the session's batched lookup is
// allocation-free once its scratch has warmed to the batch size.
func TestGetBatchIntoAllocFree(t *testing.T) {
	s := newAllocTestStore(t, 1000)
	sess := s.Session(0)
	defer sess.Close()
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-key-%06d", i*13%1000))
	}

	allocs := testing.AllocsPerRun(200, func() {
		vals, found := sess.GetBatchInto(keys)
		for i := range keys {
			if !found[i] || vals[i] == nil {
				t.Fatalf("batch key %d missing", i)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Session.GetBatchInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestGetBatchMatchesGet pins the batched lookup's input-order results.
func TestGetBatchMatchesGet(t *testing.T) {
	s := newAllocTestStore(t, 100)
	sess := s.Session(0)
	defer sess.Close()
	keys := [][]byte{
		[]byte("alloc-key-000007"), []byte("no-such-key"), []byte("alloc-key-000099"),
	}
	vals, found := sess.GetBatchInto(keys)
	for i, k := range keys {
		cols, ok := sess.Get(k, nil)
		if ok != found[i] {
			t.Fatalf("key %q: found %v vs %v", k, found[i], ok)
		}
		if ok && string(vals[i].Col(0)) != string(cols[0]) {
			t.Fatalf("key %q: %q vs %q", k, vals[i].Col(0), cols[0])
		}
	}
}

// TestPutSimpleAllocs pins the logging-disabled put hot path at exactly one
// allocation: the packed value (value.BuildTTLAt). The tree descent, version
// tick, and scratch are all allocation-free.
func TestPutSimpleAllocs(t *testing.T) {
	s := newAllocTestStore(t, 1000)
	sess := s.Session(0)
	defer sess.Close()
	key := []byte("alloc-key-000123")
	data := []byte("updated-column-data!")

	allocs := testing.AllocsPerRun(200, func() {
		if sess.PutSimple(key, data) == 0 {
			t.Fatal("put failed")
		}
	})
	if allocs > 1 {
		t.Fatalf("Session.PutSimple allocates %.1f times per run, want <= 1 (the packed value)", allocs)
	}
}

// TestPutSimpleLoggedAllocs pins the logged put path: one packed value plus
// amortized-zero log encoding into the warmed double buffer.
func TestPutSimpleLoggedAllocs(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Workers: 1, FlushInterval: time.Hour, MaintainEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	sess := s.Session(0)
	defer sess.Close()
	key := []byte("logged-alloc-key")
	data := []byte("logged-column-data")
	// Warm both log buffers past the measured append volume.
	for round := 0; round < 2; round++ {
		for i := 0; i < 300; i++ {
			sess.PutSimple(key, data)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		sess.PutSimple(key, data)
	})
	if allocs > 1 {
		t.Fatalf("logged Session.PutSimple allocates %.1f times per run, want <= 1", allocs)
	}
}

// TestPutBatchIntoAllocs pins the batched put at one packed value per key
// once the scratch is warm.
func TestPutBatchIntoAllocs(t *testing.T) {
	s := newAllocTestStore(t, 1000)
	sess := s.Session(0)
	defer sess.Close()
	const batch = 64
	keys := make([][]byte, batch)
	puts := make([][]value.ColPut, batch)
	flat := make([]value.ColPut, batch)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-key-%06d", i*13%1000))
		flat[i] = value.ColPut{Col: 0, Data: []byte("batched-column-data")}
		puts[i] = flat[i : i+1]
	}
	sess.PutBatchInto(keys, puts) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		vers := sess.PutBatchInto(keys, puts)
		if len(vers) != batch || vers[0] == 0 {
			t.Fatal("batch put failed")
		}
	})
	if allocs > batch {
		t.Fatalf("Session.PutBatchInto allocates %.1f per %d-key batch, want <= %d (one packed value per key)", allocs, batch, batch)
	}
}

// TestGetRangeIntoReducesAllocs verifies the arena-based range path cuts
// per-request garbage well below the allocating GetRange: the pair slice,
// key copies, and column slices all come from the reused scratch. (The core
// scan's internal per-node snapshot entries still allocate; only the
// kvstore-level garbage is eliminated here.)
func TestGetRangeIntoReducesAllocs(t *testing.T) {
	s := newAllocTestStore(t, 1000)
	sess := s.Session(0)
	defer sess.Close()
	var sc RangeScratch
	start := []byte("alloc-key-000100")
	cols := []int{0}
	const n = 50
	sess.GetRangeInto(start, n, cols, &sc) // warm the arenas

	legacy := testing.AllocsPerRun(100, func() {
		if pairs := sess.GetRange(start, n, cols); len(pairs) != n {
			t.Fatalf("range: %d pairs", len(pairs))
		}
	})
	into := testing.AllocsPerRun(100, func() {
		sc.Reset()
		pairs := sess.GetRangeInto(start, n, cols, &sc)
		if len(pairs) != n || string(pairs[0].Key) != "alloc-key-000100" {
			t.Fatalf("range: %d pairs", len(pairs))
		}
	})
	if into > legacy/2 {
		t.Fatalf("GetRangeInto allocates %.1f/run vs GetRange's %.1f — want at most half", into, legacy)
	}
	if into > 2*n {
		t.Fatalf("GetRangeInto allocates %.1f per %d-pair range, want <= %d", into, n, 2*n)
	}
}
