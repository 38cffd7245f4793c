package core

import (
	"bytes"
	"unsafe"

	"repro/internal/value"
)

// Put stores v for key, returning the value it replaced, if any (§3: put).
// Replacing an existing value is a single atomic pointer write and forces no
// reader retries (§4.6.1); inserting a new key publishes it with one atomic
// permutation write (§4.6.2).
func (t *Tree) Put(key []byte, v *value.Value) (old *value.Value, replaced bool) {
	old, _, replaced = t.put(key, func(*value.Value) *value.Value { return v })
	return old, replaced
}

// Update performs an atomic read-modify-write: f runs under the owning
// border node's lock with the current value (nil if the key is absent) and
// returns the value to store. This is how multi-column puts are made atomic
// (§4.7) and how log replay applies updates in version order (§5). f may
// also return nil to decline, leaving the tree unchanged — no store, no
// insert, and no reader retries. This is the hook versioned
// compare-and-swap builds on (a CAS inspects old's version under the lock
// and declines on mismatch); the same contract applies to PutBatchInto's
// per-key callback, so conditional writes batch exactly like unconditional
// ones. It returns the value f observed and the value it stored (nil when
// it declined).
func (t *Tree) Update(key []byte, f func(old *value.Value) *value.Value) (old, stored *value.Value) {
	old, stored, _ = t.put(key, f)
	return old, stored
}

// lockBorder descends from root to the border node responsible for slice
// and locks it. A split that committed between the descent and the lock may
// have shifted responsibility for the key to a right sibling, so the border
// links are chased hand-over-hand under lock. Returns nil — with everything
// unlocked and the root retry counted — when the node was deleted
// underneath us and the caller must restart from the tree root. This is the
// one copy of the writer-side locking protocol, shared by put, putRun, and
// remove.
//
//masstree:returns-locked
func (t *Tree) lockBorder(root *nodeHeader, slice uint64) *borderNode {
	n, _ := t.findBorder(root, slice)
	n.h.lock()
	if isDeleted(n.h.version.Load()) {
		n.h.unlock()
		t.stats.RootRetries.Add(1)
		return nil
	}
	for {
		next := n.next.Load()
		if next == nil || !next.keyGEqLowkey(slice) {
			return n
		}
		next.h.lock()
		n.h.unlock()
		n = next
		if isDeleted(n.h.version.Load()) {
			n.h.unlock()
			t.stats.RootRetries.Add(1)
			return nil
		}
	}
}

// put descends the trie to the border node responsible for key, locks it,
// and updates, inserts, creates a layer, or splits as needed.
func (t *Tree) put(key []byte, f func(*value.Value) *value.Value) (old, stored *value.Value, replaced bool) {
restart:
	root := t.rootHeader()
	k := key
	for {
		slice := keySlice(k)
		ord := keyOrd(k)
		n := t.lockBorder(root, slice)
		if n == nil {
			goto restart
		}
		perm := n.perm()
		rank, found := n.searchRank(perm, slice, ord)
		if found {
			slot := perm.slot(rank)
			switch kl := n.keylen[slot].Load(); kl {
			case klLayer:
				lvp := n.loadLV(slot)
				n.h.unlock()
				root = t.resolveLayer(n, slot, lvp)
				k = k[8:]
				continue
			case klSuffix:
				var suf []byte
				if sp := n.suffix[slot].Load(); sp != nil {
					suf = *sp
				}
				if bytes.Equal(suf, k[8:]) {
					old = (*value.Value)(n.loadLV(slot))
					if stored = f(old); stored != nil {
						n.storeLV(slot, unsafe.Pointer(stored))
					}
					n.h.unlock()
					return old, stored, true
				}
				// Conflicting suffix: push the old key one layer down
				// (§4.6.3), then continue inserting into the new layer.
				layer := t.makeLayer(n, slot, suf)
				n.h.unlock()
				root = layer
				k = k[8:]
				continue
			case klUnstable:
				// Unstable slots exist only while their writer holds the
				// node lock, which we hold.
				panic("core: unstable slot observed under lock")
			default:
				old = (*value.Value)(n.loadLV(slot))
				if stored = f(old); stored != nil {
					n.storeLV(slot, unsafe.Pointer(stored))
				}
				n.h.unlock()
				return old, stored, true
			}
		}
		// Key absent: insert it — unless f declines (conditional writes).
		stored = f(nil)
		if stored == nil {
			n.h.unlock()
			return nil, nil, false
		}
		if perm.count() < width {
			t.insertSlot(n, perm, rank, slice, k, stored)
			n.h.unlock()
		} else {
			t.splitInsert(n, rank, slice, k, stored) // unlocks
		}
		t.count.Add(1)
		return nil, stored, false
	}
}

// insertSlot writes a new key into a free slot of the locked border node n
// and publishes it with a single permutation store. Inserting into a slot
// that previously held a (since removed) key dirties the version so readers
// that located the old key there retry (§4.6.5).
//
//masstree:locked n
func (t *Tree) insertSlot(n *borderNode, perm permutation, rank int, slice uint64, k []byte, v *value.Value) {
	newPerm, slot := perm.insert(rank)
	if n.usedMask&(1<<uint(slot)) != 0 {
		n.h.markInserting()
		t.stats.SlotReuses.Add(1)
	}
	n.keyslice[slot].Store(slice)
	if len(k) <= 8 {
		n.keylen[slot].Store(uint32(len(k)))
		n.suffix[slot].Store(nil)
	} else {
		// Copy the suffix so the tree never retains a caller's buffer.
		suf := append([]byte(nil), k[8:]...)
		n.suffix[slot].Store(&suf)
		n.keylen[slot].Store(klSuffix)
	}
	n.storeLV(slot, unsafe.Pointer(v))
	n.usedMask |= 1 << uint(slot)
	n.permutation.Store(uint64(newPerm))
}

// makeLayer replaces the suffix key in the given slot of the locked border
// node n with a link to a freshly created trie layer containing that key's
// remainder (§4.6.3). The slot transitions value→UNSTABLE→LAYER so readers
// never confuse a value with a layer pointer. Since only one key is
// affected, neither the version nor the permutation changes.
//
//masstree:locked n
func (t *Tree) makeLayer(n *borderNode, slot int, suf []byte) *nodeHeader {
	oldv := n.loadLV(slot)
	n2 := newBorder(true, false)
	s2 := keySlice(suf)
	p2, sl2 := emptyPermutation().insert(0)
	n2.keyslice[sl2].Store(s2)
	if len(suf) <= 8 {
		n2.keylen[sl2].Store(uint32(len(suf)))
	} else {
		rest := suf[8:]
		n2.suffix[sl2].Store(&rest)
		n2.keylen[sl2].Store(klSuffix)
	}
	n2.storeLV(sl2, oldv)
	n2.usedMask |= 1 << uint(sl2)
	n2.permutation.Store(uint64(p2))

	n.keylen[slot].Store(klUnstable)
	n.storeLV(slot, unsafe.Pointer(&n2.h))
	n.keylen[slot].Store(klLayer)
	n.suffix[slot].Store(nil)
	t.stats.LayerCreations.Add(1)
	return &n2.h
}
