package kvstore

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/value"
	"repro/internal/wal"
)

// writeKind says when a write declines, leaving its key untouched.
type writeKind uint8

const (
	writePut   writeKind = iota // never declines
	writeCAS                    // declines unless the live version is expect (0 = absent)
	writeTouch                  // declines on an absent key; republishes the live columns
	writeLoad                   // declines if a live value won the race to the key
)

// writeOp describes one key's write; its column puts travel beside it in
// writeBatch.puts. ttl logs the expiry (OpPutTTL/OpInsertTTL), even 0.
type writeOp struct {
	kind   writeKind
	ttl    bool
	expiry uint64
	expect uint64
}

// writeBatch holds write's per-key state, parallel to keys: ops and puts
// in; out, the op key i logged (0 if it declined, leaving the live version
// in vers[i]), its version, prev link and expiry, and the value the key
// holds afterwards. An anchor's puts[i] becomes every column of its value.
type writeBatch struct {
	keys              [][]byte
	ops               []writeOp
	puts              [][]value.ColPut
	log               []wal.Op
	vers, prevs, exps []uint64
	vals              []*value.Value
}

// write is the store's one write path (§4.7, §5). Under worker's draw-to-
// append lock, one batched tree pass runs each key's write under its
// border node's lock. A lazily-expired value reads as absent: CAS compares
// against 0 and the value builds on no base, yet its implicit remove still
// lifts the clock and remove floor past it, like Remove, so the new version
// lands above everything the dead value logged. A write over no base logs
// an insert, which replay applies as a replacement. One over a value
// stamped through another worker's log (a cross-log handoff), and every
// Touch, logs all its columns with prev == 0, anchoring the key's chain in
// this log; any other write links to the version it replaced. Then one
// chained append logs the batch, and accounting, cache admission and
// eviction backpressure run once.
func (s *Store) write(worker int, b *writeBatch, sc *core.BatchScratch) {
	if s.logs != nil {
		mu := s.lockWorker(worker)
		defer mu.Unlock()
	}
	var delta int64
	applied, ttl := false, false
	s.tree.PutBatchInto(b.keys, sc, func(i int, old *value.Value) *value.Value {
		op, live := &b.ops[i], old
		if old != nil && expired(old) {
			live = nil
		}
		b.log[i], b.vers[i], b.vals[i] = 0, live.Version(), live
		if op.kind == writeCAS && live.Version() != op.expect ||
			op.kind == writeTouch && live == nil ||
			op.kind == writeLoad && live != nil {
			return nil // declined (see writeKind)
		}
		if live != old {
			s.clock.noteRemove(s.clock.tick(worker, old.Version()))
		}
		ver := s.nextVersion(worker, live)
		nv := value.BuildTTLAt(live, b.puts[i], ver, uint32(worker), op.expiry)
		b.log[i], b.vers[i], b.exps[i], b.vals[i] = wal.PutOp(live == nil, op.ttl), ver, op.expiry, nv
		b.prevs[i] = live.Version()
		if live != nil && (op.kind == writeTouch || live.Worker() != uint32(worker)) {
			b.prevs[i], b.puts[i] = 0, anchorPuts(nv)
		}
		applied, ttl = true, ttl || op.expiry != 0
		delta += int64(nv.Size() - old.Size())
		return nv
	})
	if !applied {
		return
	}
	if s.logs != nil {
		s.logs.Writer(worker).AppendPutBatch(b.keys, b.puts, b.vers, b.prevs, b.log, b.exps)
	}
	if ttl {
		s.ttlUsed.Store(true)
	}
	s.cache.Account(worker, delta)
	for i, k := range b.keys {
		if b.log[i] == 0 {
			continue
		}
		if s.loader != nil {
			s.loader.noteWrite(k) // negative-cache invalidation
		}
		s.cache.NotePut(worker, k, b.vals[i].Size())
	}
	s.cache.HelpEnforce(s.evictKey)
}

// spareScratch lends worker's Store-level single-key writes, which have no
// session, the tree's batch-ordering scratch. A concurrent write through
// the same worker finds the slot empty and allocates its own. (A sync.Pool
// would drop scratch at random under the race detector, breaking the
// allocation pins there.)
type spareScratch struct {
	atomic.Pointer[core.BatchScratch]
	_ [56]byte // one cache line per worker
}

// writeOne runs write for one key with its batch state on this stack frame,
// so neither key nor puts escapes; sc == nil borrows worker's spare. It
// returns the key's version, whether the write applied, and its value.
func (s *Store) writeOne(worker int, key []byte, puts []value.ColPut, op writeOp, sc *core.BatchScratch) (uint64, bool, *value.Value) {
	if sc == nil {
		spare := &s.spares[worker%len(s.spares)]
		if sc = spare.Swap(nil); sc == nil {
			sc = new(core.BatchScratch)
		}
		defer spare.Store(sc)
	}
	keys, ops, lputs := [1][]byte{key}, [1]writeOp{op}, [1][]value.ColPut{puts}
	var log [1]wal.Op
	var vers, prevs, exps [1]uint64
	var vals [1]*value.Value
	s.write(worker, &writeBatch{keys[:], ops[:], lputs[:], log[:], vers[:], prevs[:], exps[:], vals[:]}, sc)
	return vers[0], log[0] != 0, vals[0]
}

// Put applies the column modifications to key atomically, logging through
// worker's log, and returns the new version. Neither puts nor their Data is
// retained.
func (s *Store) Put(worker int, key []byte, puts []value.ColPut) uint64 {
	ver, _, _ := s.writeOne(worker, key, puts, writeOp{}, nil)
	return ver
}

// PutSimple stores data as column 0 of key.
func (s *Store) PutSimple(worker int, key, data []byte) uint64 {
	return s.Put(worker, key, []value.ColPut{{Col: 0, Data: data}})
}

// PutTTL is Put with an expiry deadline (unix nanoseconds; 0 = never).
// Once it passes, the key reads as absent and the maintenance sweep drops
// it without a log record: replay re-expires the logged value.
func (s *Store) PutTTL(worker int, key []byte, puts []value.ColPut, expiresAt uint64) uint64 {
	ver, _, _ := s.writeOne(worker, key, puts, writeOp{ttl: true, expiry: expiresAt}, nil)
	return ver
}

// Touch republishes key's columns under a new version with a new expiry (0
// = never). ok is false if the key is absent or expired: touching the dead
// does not revive them.
func (s *Store) Touch(worker int, key []byte, expiresAt uint64) (ver uint64, ok bool) {
	ver, ok, _ = s.writeOne(worker, key, nil, writeOp{kind: writeTouch, ttl: true, expiry: expiresAt}, nil)
	return ver, ok
}

// CasPut is a versioned conditional Put (Deuteronomy-style): it applies
// only if key's live version is expect, 0 meaning absent (create-if-absent),
// compared under the border node lock the write publishes under. Success
// returns the new version; a mismatch changes nothing and returns the live
// version (0 if absent) with ok false.
func (s *Store) CasPut(worker int, key []byte, expect uint64, puts []value.ColPut) (ver uint64, ok bool) {
	ver, ok, _ = s.writeOne(worker, key, puts, writeOp{kind: writeCAS, expect: expect}, nil)
	return ver, ok
}

// installLoaded publishes a backend load as key's whole value, unless a
// racing write made the key live first: then it returns that value. Runs
// under the caller's epoch (see loader.install).
func (s *Store) installLoaded(worker int, key []byte, cols [][]byte, expiresAt uint64) *value.Value {
	puts := make([]value.ColPut, len(cols))
	for i := range cols {
		puts[i] = value.ColPut{Col: i, Data: cols[i]}
	}
	_, _, v := s.writeOne(worker, key, puts, writeOp{kind: writeLoad, ttl: true, expiry: expiresAt}, nil)
	return v
}

// PutBatchInto applies one put per key in one batched write (§4.8 applied
// to writes): runs of keys owned by the same border node share one lock
// acquisition, and all records are encoded under one log-buffer lock. The
// versions (input order) live in sc until its next write. Duplicate keys
// apply in input order; no inputs are retained.
func (s *Store) PutBatchInto(worker int, keys [][]byte, puts [][]value.ColPut, sc *BatchScratch) []uint64 {
	n, b := len(keys), &sc.w
	if cap(b.ops) < n {
		*b = writeBatch{ops: make([]writeOp, n), puts: make([][]value.ColPut, n), log: make([]wal.Op, n),
			vers: make([]uint64, n), prevs: make([]uint64, n), exps: make([]uint64, n), vals: make([]*value.Value, n)}
	}
	w := writeBatch{keys, b.ops[:n], b.puts[:n], b.log[:n], b.vers[:n], b.prevs[:n], b.exps[:n], b.vals[:n]}
	copy(w.puts, puts[:n])
	s.write(worker, &w, &sc.core)
	clear(w.puts)
	return b.vers[:n]
}

// nextVersion draws key's next version from worker's clock, under the
// owning border node's lock: updates lift the clock past the replaced
// value's version, inserts past every remove (see shardedClock).
func (s *Store) nextVersion(worker int, old *value.Value) uint64 {
	if old == nil {
		return s.clock.tick(worker, s.clock.removeFloor.Load())
	}
	return s.clock.tick(worker, old.Version())
}

// anchorPuts lists every column of nv for a column-complete anchor record.
// The Data slices alias nv's immutable value; the log copies them. Its one
// allocation is the handoff path's second, pinned by TestHandoffAnchorAllocs.
func anchorPuts(nv *value.Value) []value.ColPut {
	puts := make([]value.ColPut, nv.NumCols())
	for i := range puts {
		puts[i] = value.ColPut{Col: i, Data: nv.Col(i)}
	}
	return puts
}
