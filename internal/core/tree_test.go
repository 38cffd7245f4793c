package core

import (
	"fmt"
	"testing"

	"repro/internal/value"
)

func mustGet(t *testing.T, tr *Tree, key, want string) {
	t.Helper()
	v, ok := tr.Get([]byte(key))
	if !ok {
		t.Fatalf("Get(%q): not found", key)
	}
	if got := string(v.Bytes()); got != want {
		t.Fatalf("Get(%q) = %q, want %q", key, got, want)
	}
}

func mustMiss(t *testing.T, tr *Tree, key string) {
	t.Helper()
	if v, ok := tr.Get([]byte(key)); ok {
		t.Fatalf("Get(%q) = %q, want miss", key, v.Bytes())
	}
}

func put(tr *Tree, key, val string) (*value.Value, bool) {
	return tr.Put([]byte(key), value.New([]byte(val)))
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	mustMiss(t, tr, "a")
	mustMiss(t, tr, "")
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := tr.Remove([]byte("a")); ok {
		t.Fatal("Remove on empty tree reported success")
	}
}

func TestBasicPutGet(t *testing.T) {
	tr := New()
	put(tr, "hello", "world")
	mustGet(t, tr, "hello", "world")
	mustMiss(t, tr, "hell")
	mustMiss(t, tr, "hello!")
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	old, replaced := put(tr, "hello", "there")
	if !replaced || string(old.Bytes()) != "world" {
		t.Fatalf("replace: old=%v replaced=%v", old, replaced)
	}
	mustGet(t, tr, "hello", "there")
	if tr.Len() != 1 {
		t.Fatalf("Len after replace = %d", tr.Len())
	}
}

func TestEmptyKeyAndNulKeys(t *testing.T) {
	tr := New()
	put(tr, "", "empty")
	put(tr, "\x00", "one-nul")
	put(tr, "\x00\x00", "two-nul")
	put(tr, "ABCDEFG", "seven")
	put(tr, "ABCDEFG\x00", "eight-nul")
	mustGet(t, tr, "", "empty")
	mustGet(t, tr, "\x00", "one-nul")
	mustGet(t, tr, "\x00\x00", "two-nul")
	mustGet(t, tr, "ABCDEFG", "seven")
	mustGet(t, tr, "ABCDEFG\x00", "eight-nul")
	mustMiss(t, tr, "\x00\x00\x00")
}

// TestPaperLayerExample runs the exact sequence of §4.1.
func TestPaperLayerExample(t *testing.T) {
	tr := New()
	// 1. put("01234567AB") stores slice + suffix "AB" in the root layer.
	put(tr, "01234567AB", "v1")
	mustGet(t, tr, "01234567AB", "v1")
	if s := tr.Stats(); s.LayerCreations != 0 {
		t.Fatalf("premature layer creation: %+v", s)
	}
	// 2. put("01234567XY") shares the 8-byte prefix: a layer-1 tree appears;
	// both keys remain visible throughout.
	put(tr, "01234567XY", "v2")
	if s := tr.Stats(); s.LayerCreations != 1 {
		t.Fatalf("expected one layer creation, got %+v", s)
	}
	mustGet(t, tr, "01234567AB", "v1")
	mustGet(t, tr, "01234567XY", "v2")
	mustMiss(t, tr, "01234567")
	mustMiss(t, tr, "01234567AZ")
	// 3. remove("01234567XY") deletes "XY" from the layer-1 tree; "AB" stays.
	if _, ok := tr.Remove([]byte("01234567XY")); !ok {
		t.Fatal("remove failed")
	}
	mustGet(t, tr, "01234567AB", "v1")
	mustMiss(t, tr, "01234567XY")
}

func TestDeepSharedPrefix(t *testing.T) {
	tr := New()
	// 64-byte shared prefix forces at least 8 layers (§4.1 Balance).
	prefix := ""
	for i := 0; i < 8; i++ {
		prefix += "PFX" + fmt.Sprintf("%05d", i)
	}
	keys := []string{prefix + "aaa", prefix + "bbb", prefix + "ccc", prefix[:20], prefix}
	for i, k := range keys {
		put(tr, k, fmt.Sprintf("v%d", i))
	}
	for i, k := range keys {
		mustGet(t, tr, k, fmt.Sprintf("v%d", i))
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
	// Keys sharing the prefix must have created layers.
	if s := tr.Stats(); s.LayerCreations == 0 {
		t.Fatal("expected layer creations")
	}
}

func TestSequentialInsertSplits(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i++ {
		put(tr, fmt.Sprintf("key%06d", i), fmt.Sprintf("val%d", i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		mustGet(t, tr, fmt.Sprintf("key%06d", i), fmt.Sprintf("val%d", i))
	}
	if s := tr.Stats(); s.Splits == 0 {
		t.Fatal("expected splits")
	}
}

func TestReverseSequentialInsert(t *testing.T) {
	tr := New()
	const n = 1000
	for i := n - 1; i >= 0; i-- {
		put(tr, fmt.Sprintf("key%06d", i), "v")
	}
	for i := 0; i < n; i++ {
		mustGet(t, tr, fmt.Sprintf("key%06d", i), "v")
	}
}

func TestUpdateRMW(t *testing.T) {
	tr := New()
	old, stored := tr.Update([]byte("ctr"), func(old *value.Value) *value.Value {
		if old != nil {
			t.Fatal("old should be nil on first update")
		}
		return value.New([]byte{1})
	})
	if old != nil || stored.Bytes()[0] != 1 {
		t.Fatal("first update wrong")
	}
	for i := 0; i < 10; i++ {
		tr.Update([]byte("ctr"), func(old *value.Value) *value.Value {
			return value.New([]byte{old.Bytes()[0] + 1})
		})
	}
	v, _ := tr.Get([]byte("ctr"))
	if v.Bytes()[0] != 11 {
		t.Fatalf("counter = %d, want 11", v.Bytes()[0])
	}
}

func TestRemoveEverythingThenReuse(t *testing.T) {
	tr := New()
	const n = 500
	for i := 0; i < n; i++ {
		put(tr, fmt.Sprintf("k%05d", i), "v")
	}
	for i := 0; i < n; i++ {
		if _, ok := tr.Remove([]byte(fmt.Sprintf("k%05d", i))); !ok {
			t.Fatalf("remove %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after removing all", tr.Len())
	}
	for i := 0; i < n; i++ {
		mustMiss(t, tr, fmt.Sprintf("k%05d", i))
	}
	if s := tr.Stats(); s.NodeDeletes == 0 {
		t.Fatal("expected node deletions")
	}
	// The tree must remain fully usable.
	for i := 0; i < n; i++ {
		put(tr, fmt.Sprintf("k%05d", i), "v2")
	}
	for i := 0; i < n; i++ {
		mustGet(t, tr, fmt.Sprintf("k%05d", i), "v2")
	}
}

// TestRemoveLeftmostChildRedirects deletes a border node that is child[0]
// of a non-leftmost interior node. The deleted range moves to the left
// neighbour in the border list, so interior routing must send it there too:
// a re-inserted key must not land in the right sibling, below its lowkey.
func TestRemoveLeftmostChildRedirects(t *testing.T) {
	tr := New()
	const n = 300
	for i := 0; i < n; i++ {
		put(tr, fmt.Sprintf("hot%04d", i), "v")
	}
	root := tr.rootHeader()
	if isBorder(root.version.Load()) {
		t.Fatal("tree too small: root is a border node")
	}
	h := root.interior().child[1].Load()
	if isBorder(h.version.Load()) {
		t.Fatal("root's second subtree is a single border node")
	}
	for !isBorder(h.version.Load()) {
		h = h.interior().child[0].Load()
	}
	victim := h.border()
	hi, bounded := uint64(0), false
	if next := victim.next.Load(); next != nil {
		hi, bounded = next.lowSlice, true
	}
	var keys []string
	tr.Scan(nil, func(k []byte, _ *value.Value) bool {
		if s := keySlice(k); s >= victim.lowSlice && (!bounded || s < hi) {
			keys = append(keys, string(k))
		}
		return true
	})
	if len(keys) == 0 {
		t.Fatal("victim border node holds no keys")
	}
	for _, k := range keys {
		if _, ok := tr.Remove([]byte(k)); !ok {
			t.Fatalf("remove %q failed", k)
		}
	}
	if !isDeleted(victim.h.version.Load()) {
		t.Fatal("emptied border node was not deleted")
	}
	checkInvariants(t, tr)
	for _, k := range keys {
		put(tr, k, "again")
		checkInvariants(t, tr)
	}
	again := make(map[string]bool, len(keys))
	for _, k := range keys {
		again[k] = true
	}
	for i := 0; i < n; i++ {
		k, want := fmt.Sprintf("hot%04d", i), "v"
		if again[k] {
			want = "again"
		}
		mustGet(t, tr, k, want)
	}
}

func TestLayerCollapseMaintenance(t *testing.T) {
	tr := New()
	put(tr, "01234567AB", "v1")
	put(tr, "01234567XY", "v2")
	tr.Remove([]byte("01234567XY"))
	tr.Remove([]byte("01234567AB"))
	if tr.PendingMaintenance() == 0 {
		t.Fatal("expected a pending layer-collapse task")
	}
	tr.Maintain()
	if s := tr.Stats(); s.LayerCollapses != 1 {
		t.Fatalf("LayerCollapses = %d, want 1", s.LayerCollapses)
	}
	// Reinsert through the collapsed region.
	put(tr, "01234567AB", "v3")
	mustGet(t, tr, "01234567AB", "v3")
}

func TestLayerCollapseSkipsRevivedLayer(t *testing.T) {
	tr := New()
	put(tr, "01234567AB", "v1")
	put(tr, "01234567XY", "v2")
	tr.Remove([]byte("01234567XY"))
	tr.Remove([]byte("01234567AB"))
	// Revive the layer before maintenance runs.
	put(tr, "01234567CD", "v3")
	tr.Maintain()
	mustGet(t, tr, "01234567CD", "v3")
	if s := tr.Stats(); s.LayerCollapses != 0 {
		t.Fatalf("collapsed a live layer: %+v", s)
	}
}

func TestSameSliceGroup(t *testing.T) {
	tr := New()
	// All 9 prefixes of one 8-byte string share a slice representation and
	// must coexist in one border node (§4.2: up to 10 keys per slice).
	base := "ABCDEFGH"
	for i := 0; i <= 8; i++ {
		put(tr, base[:i], fmt.Sprintf("v%d", i))
	}
	put(tr, base+"-long", "v9") // the one >8-byte key for this slice
	for i := 0; i <= 8; i++ {
		mustGet(t, tr, base[:i], fmt.Sprintf("v%d", i))
	}
	mustGet(t, tr, base+"-long", "v9")
	// Force surrounding splits and re-check the group stayed intact.
	for i := 0; i < 500; i++ {
		put(tr, fmt.Sprintf("ZZ%06d", i), "z")
	}
	for i := 0; i <= 8; i++ {
		mustGet(t, tr, base[:i], fmt.Sprintf("v%d", i))
	}
}

func TestValueVersionsAdvance(t *testing.T) {
	tr := New()
	tr.Update([]byte("k"), func(old *value.Value) *value.Value {
		return value.Apply(old, []value.ColPut{{Col: 0, Data: []byte("a")}})
	})
	v1, _ := tr.Get([]byte("k"))
	tr.Update([]byte("k"), func(old *value.Value) *value.Value {
		return value.Apply(old, []value.ColPut{{Col: 1, Data: []byte("b")}})
	})
	v2, _ := tr.Get([]byte("k"))
	if v2.Version() <= v1.Version() {
		t.Fatalf("versions not increasing: %d then %d", v1.Version(), v2.Version())
	}
	if string(v2.Col(0)) != "a" || string(v2.Col(1)) != "b" {
		t.Fatalf("columns wrong: %v", v2)
	}
}
