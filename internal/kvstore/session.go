package kvstore

import (
	"context"
	"errors"

	"repro/internal/epoch"
	"repro/internal/value"
)

// Session is one worker's handle onto the store: it binds operations to the
// worker's log (each query thread maintains its own log file and in-memory
// log buffer, §5) and registers an epoch handle so deferred reclamation
// waits for the session's in-flight operations (§4.6.1).
//
// A Session is not safe for concurrent use; create one per worker goroutine.
type Session struct {
	s      *Store
	worker int
	h      *epoch.Handle

	put1  [1]value.ColPut // PutSimple scratch (Put does not retain the slice)
	batch BatchScratch    // GetBatchInto and write scratch
}

// Session creates a session bound to the given worker's log.
func (s *Store) Session(worker int) *Session {
	return &Session{s: s, worker: worker, h: s.mgr.Register()}
}

// Worker reports the worker id the session is bound to — the index of the
// log stream its puts append to, and the shard its latency observations
// land in.
func (ss *Session) Worker() int { return ss.worker }

// Close unregisters the session from the epoch manager.
func (ss *Session) Close() {
	ss.s.mgr.Unregister(ss.h)
}

// Get returns the requested columns of key (nil cols = all).
func (ss *Session) Get(key []byte, cols []int) ([][]byte, bool) {
	ss.h.Enter()
	defer ss.h.Exit()
	ss.s.cache.NoteAccess(ss.worker, key)
	return ss.s.Get(key, cols)
}

// GetInto is Get appending the columns to dst (see Store.GetInto); with a
// reused dst the read path performs no allocations. (In cache mode the read
// additionally records the key's hash into the worker's lossy access ring —
// an atomic add and store, still allocation-free.)
func (ss *Session) GetInto(key []byte, cols []int, dst [][]byte) ([][]byte, bool) {
	ss.h.Enter()
	defer ss.h.Exit()
	ss.s.cache.NoteAccess(ss.worker, key)
	return ss.s.GetInto(key, cols, dst)
}

// GetBatchInto is the allocation-free batched lookup: results live in the
// session's scratch and are valid until the session's next batched get.
// Column extraction is the caller's job (see AppendCols).
func (ss *Session) GetBatchInto(keys [][]byte) ([]*value.Value, []bool) {
	ss.h.Enter()
	defer ss.h.Exit()
	if ss.s.cache.EvictionEnabled() {
		for _, k := range keys {
			ss.s.cache.NoteAccess(ss.worker, k)
		}
	}
	return ss.s.GetBatchInto(keys, &ss.batch)
}

// write runs one single-key write through this session's log and batch-
// ordering scratch, inside the session's epoch.
func (ss *Session) write(key []byte, puts []value.ColPut, op writeOp) (uint64, bool) {
	ss.h.Enter()
	defer ss.h.Exit()
	ver, ok, _ := ss.s.writeOne(ss.worker, key, puts, op, &ss.batch.core)
	return ver, ok
}

// Put applies column modifications atomically via this session's log.
// Nothing is retained: the puts slice, the Data bytes, and the key are all
// copied (into the packed value and the log buffer), so callers may reuse
// their buffers immediately.
func (ss *Session) Put(key []byte, puts []value.ColPut) uint64 {
	ver, _ := ss.write(key, puts, writeOp{})
	return ver
}

// PutSimple stores data as column 0. Neither key nor data is retained.
func (ss *Session) PutSimple(key, data []byte) uint64 {
	ss.put1[0] = value.ColPut{Col: 0, Data: data}
	return ss.Put(key, ss.put1[:])
}

// PutTTL is Put with an expiry deadline in unix nanoseconds (0 = never);
// see Store.PutTTL for cache-mode TTL semantics.
func (ss *Session) PutTTL(key []byte, puts []value.ColPut, expiresAt uint64) uint64 {
	ver, _ := ss.write(key, puts, writeOp{ttl: true, expiry: expiresAt})
	return ver
}

// PutSimpleTTL stores data as column 0 with an expiry deadline.
func (ss *Session) PutSimpleTTL(key, data []byte, expiresAt uint64) uint64 {
	ss.put1[0] = value.ColPut{Col: 0, Data: data}
	return ss.PutTTL(key, ss.put1[:], expiresAt)
}

// Touch resets key's expiry without changing its columns; ok is false if
// the key is absent or already expired. See Store.Touch.
func (ss *Session) Touch(key []byte, expiresAt uint64) (uint64, bool) {
	return ss.write(key, nil, writeOp{kind: writeTouch, ttl: true, expiry: expiresAt})
}

// CasPut conditionally applies column modifications: the write succeeds
// only if key's current version equals expect (0 = key absent), evaluated
// under the owning border node's lock. Success is logged as an ordinary put
// and returns the new version; mismatch changes nothing and returns the
// current version with ok false. See Store.CasPut.
func (ss *Session) CasPut(key []byte, expect uint64, puts []value.ColPut) (ver uint64, ok bool) {
	return ss.write(key, puts, writeOp{kind: writeCAS, expect: expect})
}

// ErrNoBackend is returned by GetOrLoad when the store has no configured
// backend tier — a miss then has nowhere to read through to.
var ErrNoBackend = errors.New("kvstore: no backend configured")

// GetOrLoad returns key's value, reading through the configured backend on
// miss. The in-memory hit path is the ordinary epoch-protected lookup —
// allocation-free, never blocking — while a miss funnels into the loader:
// exactly one backend flight per key runs at a time and every concurrent
// miss parks on its result (herd protection), honoring ctx while parked.
//
// Returns (value, stale, error). A nil value with nil error is an
// authoritative miss (absent both in memory and upstream, possibly
// negative-cached). stale is true when the backend could not answer and the
// value is a resident expired one served under the MaxStale window; values
// are immutable, so the result stays readable after the call regardless.
func (ss *Session) GetOrLoad(ctx context.Context, key []byte) (*value.Value, bool, error) {
	ss.h.Enter()
	ss.s.cache.NoteAccess(ss.worker, key)
	v, ok := ss.s.tree.Get(key)
	ss.h.Exit()
	if ok && !expired(v) {
		return v, false, nil
	}
	// Miss: the epoch is released before the flight — a backend load can
	// take seconds, and pinning an epoch that long would stall deferred
	// reclamation storewide. The loader re-enters around tree operations.
	if ss.s.loader == nil {
		return nil, false, ErrNoBackend
	}
	return ss.s.loader.load(ctx, ss, key)
}

// GetValue returns key's current packed value. Values are immutable and
// garbage-collected, so the result stays safe to read after the call; the
// server uses this to surface value versions alongside columns (CAS needs
// a version to expect).
func (ss *Session) GetValue(key []byte) (*value.Value, bool) {
	ss.h.Enter()
	defer ss.h.Exit()
	ss.s.cache.NoteAccess(ss.worker, key)
	return ss.s.GetValue(key)
}

// PutBatchInto applies one put per key in a single epoch-protected batched
// tree pass, sharing border-node lock acquisitions between co-located keys
// (§4.8 applied to writes) and encoding all log records under one log-
// buffer lock. The returned versions (input order) live in the session's
// scratch and are valid until the session's next write. Duplicate keys
// apply in input order; no inputs are retained.
func (ss *Session) PutBatchInto(keys [][]byte, puts [][]value.ColPut) []uint64 {
	ss.h.Enter()
	defer ss.h.Exit()
	return ss.s.PutBatchInto(ss.worker, keys, puts, &ss.batch)
}

// Remove deletes key via this session's log.
func (ss *Session) Remove(key []byte) bool {
	ss.h.Enter()
	defer ss.h.Exit()
	return ss.s.Remove(ss.worker, key)
}

// GetRange returns up to n pairs from start (nil cols = all columns).
func (ss *Session) GetRange(start []byte, n int, cols []int) []Pair {
	ss.h.Enter()
	defer ss.h.Exit()
	return ss.s.GetRange(start, n, cols)
}

// GetRangeInto is GetRange appending into the caller's reusable arenas; see
// Store.GetRangeInto.
func (ss *Session) GetRangeInto(start []byte, n int, cols []int, sc *RangeScratch) []Pair {
	ss.h.Enter()
	defer ss.h.Exit()
	return ss.s.GetRangeInto(start, n, cols, sc)
}
