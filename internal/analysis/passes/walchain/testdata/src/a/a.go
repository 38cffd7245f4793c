// Package a is the walchain golden fixture: a miniature kvstore write path
// with the recognition conventions of the real one (tree write methods
// Update/Apply/PutBatchInto taking func literals, a version-drawing
// nextVersion method, a worker lock named lockWorker, and a WAL type named
// Writer with the chained batch append), exercising every diagnostic and
// the clean shapes.
package a

type Value struct{}

func (v *Value) Version() uint64 {
	if v == nil {
		return 0
	}
	return 1
}

type ColPut struct {
	Col  int
	Data []byte
}

type Tree struct{}

func (t *Tree) Update(key []byte, f func(*Value) *Value)               {}
func (t *Tree) Apply(key []byte, f func(*Value) *Value)                {}
func (t *Tree) PutBatchInto(keys [][]byte, f func(int, *Value) *Value) {}

type Op uint8

type Writer struct{}

func (w *Writer) AppendPutBatch(keys [][]byte, puts [][]ColPut, ts, prev []uint64, ops []Op, expiry []uint64) {
}
func (w *Writer) AppendRemove(ts uint64, key []byte) {}

type Set struct{}

func (s *Set) Writer(i int) *Writer { return &Writer{} }

type mutex struct{}

func (m *mutex) Unlock() {}

type Store struct {
	tree *Tree
	logs *Set
}

func (s *Store) lockWorker(worker int) *mutex              { return &mutex{} }
func (s *Store) nextVersion(worker int, old *Value) uint64 { return 2 }

// goodPut is the canonical single-key shape: prev and ver both drawn inside
// the Update callback, appended as one-element slices under the worker lock.
func (s *Store) goodPut(worker int, key []byte, puts []ColPut) uint64 {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	var ver, prev uint64
	s.tree.Update(key, func(old *Value) *Value {
		prev = old.Version()
		ver = s.nextVersion(worker, old)
		return old
	})
	s.logs.Writer(worker).AppendPutBatch([][]byte{key}, [][]ColPut{puts}, []uint64{ver}, []uint64{prev}, []Op{1}, []uint64{0})
	return ver
}

// goodAnchor: the literal 0 is the one legal constant prev.
func (s *Store) goodAnchor(worker int, key []byte, puts []ColPut, expiry uint64) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	var ver uint64
	s.tree.Apply(key, func(old *Value) *Value {
		ver = s.nextVersion(worker, old)
		return old
	})
	s.logs.Writer(worker).AppendPutBatch([][]byte{key}, [][]ColPut{puts}, []uint64{ver}, []uint64{0}, []Op{4}, []uint64{expiry})
}

type scratch struct {
	vers, prevs, exps []uint64
	ops               []Op
}

// goodBatch: scratch-rooted versions and prev links filled in the batch
// callback count as drawn under the border lock.
func (s *Store) goodBatch(worker int, keys [][]byte, puts [][]ColPut, sc *scratch) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	s.tree.PutBatchInto(keys, func(i int, old *Value) *Value {
		sc.prevs[i] = old.Version()
		sc.vers[i] = s.nextVersion(worker, old)
		return old
	})
	s.logs.Writer(worker).AppendPutBatch(keys, puts, sc.vers, sc.prevs, sc.ops, sc.exps)
}

// badPrevOutside reads the prev link before the critical section — the
// TOCTOU the chain invariant forbids.
func (s *Store) badPrevOutside(worker int, key []byte, puts []ColPut, cur *Value) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	prev := cur.Version()
	var ver uint64
	s.tree.Update(key, func(old *Value) *Value {
		ver = s.nextVersion(worker, old)
		return old
	})
	s.logs.Writer(worker).AppendPutBatch([][]byte{key}, [][]ColPut{puts}, []uint64{ver}, []uint64{prev}, []Op{1}, []uint64{0}) // want `prev link prev of AppendPutBatch is not read in the border-lock critical section that draws the version`
}

// badBatchPrevOutside fills a batch's prev links outside the callback.
func (s *Store) badBatchPrevOutside(worker int, keys [][]byte, puts [][]ColPut, cur []*Value, sc *scratch) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	prevs := make([]uint64, len(keys))
	for i, v := range cur {
		prevs[i] = v.Version()
	}
	s.tree.PutBatchInto(keys, func(i int, old *Value) *Value {
		sc.vers[i] = s.nextVersion(worker, old)
		return old
	})
	s.logs.Writer(worker).AppendPutBatch(keys, puts, sc.vers, prevs, sc.ops, sc.exps) // want `prev link prevs of AppendPutBatch is not read in the border-lock critical section that draws the version`
}

// badNoLock appends outside the worker lock: nothing serializes the
// draw-to-append window against the next writer.
func (s *Store) badNoLock(worker int, keys [][]byte, puts [][]ColPut, sc *scratch) {
	s.tree.PutBatchInto(keys, func(i int, old *Value) *Value {
		sc.prevs[i] = old.Version()
		sc.vers[i] = s.nextVersion(worker, old)
		return old
	})
	s.logs.Writer(worker).AppendPutBatch(keys, puts, sc.vers, sc.prevs, sc.ops, sc.exps) // want `AppendPutBatch without the worker lock: no lockWorker call precedes the append`
}

// badLockAfter takes the worker lock only after appending, so the window
// between draw and append is open to the next writer.
func (s *Store) badLockAfter(worker int, keys [][]byte, puts [][]ColPut, sc *scratch) {
	s.tree.PutBatchInto(keys, func(i int, old *Value) *Value {
		sc.prevs[i] = old.Version()
		sc.vers[i] = s.nextVersion(worker, old)
		return old
	})
	s.logs.Writer(worker).AppendPutBatch(keys, puts, sc.vers, sc.prevs, sc.ops, sc.exps) // want `AppendPutBatch without the worker lock: no lockWorker call precedes the append`
	s.lockWorker(worker).Unlock()
}

// badLiteralPrev forges a constant chain link.
func (s *Store) badLiteralPrev(worker int, key []byte, puts []ColPut) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	var ver uint64
	s.tree.Update(key, func(old *Value) *Value {
		ver = s.nextVersion(worker, old)
		return old
	})
	s.logs.Writer(worker).AppendPutBatch([][]byte{key}, [][]ColPut{puts}, []uint64{ver}, []uint64{7}, []Op{1}, []uint64{0}) // want `constant prev 7 in AppendPutBatch: only 0 \(a chain anchor\) may be a constant link`
}

// badVersionOutside draws the version outside any tree write, so it is
// unordered against the value it stamps — and the append's arguments are
// then both un-drawn.
func (s *Store) badVersionOutside(worker int, key []byte, puts []ColPut, cur *Value) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	ver := s.nextVersion(worker, cur) // want `nextVersion outside a tree-write critical section`
	prev := cur.Version()
	s.tree.Update(key, func(old *Value) *Value { return old })
	s.logs.Writer(worker).AppendPutBatch([][]byte{key}, [][]ColPut{puts}, []uint64{ver}, []uint64{prev}, []Op{1}, []uint64{0}) // want `version argument ver of AppendPutBatch is not assigned in the border-lock critical section that draws it` `prev link prev of AppendPutBatch is not read in the border-lock critical section that draws the version`
}

// goodAllowed: a deliberate exception carries an annotated reason.
func (s *Store) goodAllowed(worker int, keys [][]byte, puts [][]ColPut, replayVers, replayPrevs []uint64, ops []Op, exps []uint64) {
	mu := s.lockWorker(worker)
	defer mu.Unlock()
	//lint:allow walchain replay re-logs versions drawn by the original writer
	s.logs.Writer(worker).AppendPutBatch(keys, puts, replayVers, replayPrevs, ops, exps)
}
