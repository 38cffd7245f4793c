package core

import (
	"bytes"

	"repro/internal/value"
)

// Remove deletes key from the tree, returning the removed value (§3:
// remove; §4.6.5). Removal just shrinks the permutation — the key and value
// memory are not cleared, so a concurrent get may still return the removed
// value, which is correct for overlapping operations. Border nodes that
// become empty are unlinked and deleted, along with any resulting empty
// interior ancestors; the initial (leftmost) node of each B+-tree is never
// deleted. Empty trie layers are collapsed later by Maintain (the paper's
// epoch-scheduled reclamation tasks).
func (t *Tree) Remove(key []byte) (*value.Value, bool) {
	return t.remove(key, nil)
}

// RemoveWith is Remove with a callback that runs under the owning border
// node's lock just before the key is unlinked. The kvstore uses it to assign
// the remove's log timestamp atomically with the removal, so replay order
// matches execution order even across remove/re-insert races (§5).
func (t *Tree) RemoveWith(key []byte, fn func(old *value.Value)) (*value.Value, bool) {
	if fn == nil {
		return t.remove(key, nil)
	}
	return t.remove(key, func(old *value.Value) bool { fn(old); return true })
}

// RemoveIf removes key only if pred, evaluated on the current value under
// the owning border node's lock, returns true. This is the remove-for-
// eviction hook: callers decide on a value they read optimistically and the
// predicate runs against the value actually being unlinked. How much it
// re-checks is the caller's policy — the kvstore's TTL sweep re-validates
// expiry so a racing fresh put is never dropped by a stale deadline, while
// its eviction path removes unconditionally (a cache may evict any key at
// any moment, so evicting a just-put value is semantically the same as
// evicting it right after). Returns the removed value and whether the
// removal happened.
func (t *Tree) RemoveIf(key []byte, pred func(old *value.Value) bool) (*value.Value, bool) {
	return t.remove(key, pred)
}

func (t *Tree) remove(key []byte, fn func(old *value.Value) bool) (*value.Value, bool) {
restart:
	root := t.rootHeader()
	k := key
	depth := 0
	for {
		slice := keySlice(k)
		ord := keyOrd(k)
		n := t.lockBorder(root, slice)
		if n == nil {
			goto restart
		}
		perm := n.perm()
		rank, found := n.searchRank(perm, slice, ord)
		if !found {
			n.h.unlock()
			return nil, false
		}
		slot := perm.slot(rank)
		switch kl := n.keylen[slot].Load(); kl {
		case klLayer:
			lvp := n.loadLV(slot)
			n.h.unlock()
			root = t.resolveLayer(n, slot, lvp)
			k = k[8:]
			depth++
			continue
		case klSuffix:
			var suf []byte
			if sp := n.suffix[slot].Load(); sp != nil {
				suf = *sp
			}
			if !bytes.Equal(suf, k[8:]) {
				n.h.unlock()
				return nil, false
			}
		case klUnstable:
			panic("core: unstable slot observed under lock")
		}
		old := (*value.Value)(n.loadLV(slot))
		if fn != nil && !fn(old) {
			n.h.unlock()
			return nil, false
		}
		// Dirty the version before unlinking (§4.6.5): a concurrent reader
		// or scanner that snapshotted the permutation while this key was
		// live must fail its version validation and retry, or it would
		// return (or checkpoint!) a key that no longer exists. The unlock
		// increments vinsert, so post-remove validations fail too.
		n.h.markInserting()
		np := perm.remove(rank)
		n.permutation.Store(uint64(np))
		t.count.Add(-1)
		if np.count() == 0 {
			t.emptyBorder(n, key, depth) // unlocks n
		} else {
			n.h.unlock()
		}
		return old, true
	}
}

// emptyBorder handles a border node that has just become empty. n is locked
// on entry and unlocked on return. The initial leftmost node of a tree is
// kept (it anchors lowkey = -inf); if it is the root of an empty layer-h
// tree (h >= 1), a collapse task is scheduled instead (§4.6.5: full trees
// are not cleaned up right away because that requires locking two layers).
//
//masstree:unlocks n
func (t *Tree) emptyBorder(n *borderNode, key []byte, depth int) {
	if n.lowOrd < 0 {
		if depth > 0 && isRoot(n.h.version.Load()) && n.next.Load() == nil {
			t.scheduleCollapse(key[:depth*8])
		}
		n.h.unlock()
		return
	}
	t.removeBorder(n)
}

// removeBorder unlinks the empty, locked, non-leftmost border node n from
// the border list and from its parent, deleting empty interior ancestors
// recursively. Locks are taken left-to-right and then up the tree; when that
// order cannot be honored directly we release and revalidate, because a
// concurrent insert may revive the node while it is unlocked.
//
//masstree:unlocks n
func (t *Tree) removeBorder(n *borderNode) {
	var p *borderNode
	for {
		p = n.prev.Load()
		if p.h.tryLock() {
			if n.prev.Load() == p && !isDeleted(p.h.version.Load()) {
				break
			}
			p.h.unlock()
			continue
		}
		// Lock order is left-to-right: release n, take p then n, revalidate.
		n.h.unlock()
		p.h.lock()
		n.h.lock()
		if n.perm().count() != 0 || isDeleted(n.h.version.Load()) {
			// Revived by a concurrent insert (or already gone): abort.
			p.h.unlock()
			n.h.unlock()
			return
		}
		if n.prev.Load() != p || isDeleted(p.h.version.Load()) {
			p.h.unlock()
			continue
		}
		break
	}

	// Holding p's and n's locks: unlink n. next's prev pointer is protected
	// by n's (its previous sibling's) lock, which we hold.
	n.h.markSplitting() // range moves to p: readers must retry from the root
	n.h.markDeleted()
	next := n.next.Load()
	p.next.Store(next)
	if next != nil {
		next.prev.Store(p)
	}
	p.h.unlock()

	parent := n.h.lockParent()
	n.h.unlock()
	t.stats.NodeDeletes.Add(1)
	if parent != nil {
		t.removeChild(parent, &n.h)
	}
}

// removeChild removes the given child from the locked interior node p,
// shifting keys and children down. If p loses its last child it is deleted
// and removed from its own parent, recursively. p is unlocked on return.
//
//masstree:unlocks p
func (t *Tree) removeChild(p *interiorNode, child *nodeHeader) {
	nk := int(p.nkeys.Load())
	idx := p.childIndex(child)
	if idx < 0 {
		// The child is no longer linked here (an interior split moved it and
		// removal raced ahead); nothing to do.
		p.h.unlock()
		return
	}
	p.h.markSplitting() // ranges shift: force readers to retry from the root
	if nk == 0 {
		// Removing the only child empties p: delete p as well.
		p.h.markDeleted()
		gp := p.h.lockParent()
		p.h.unlock()
		t.stats.NodeDeletes.Add(1)
		if gp != nil {
			t.removeChild(gp, &p.h)
		}
		return
	}
	// Removing child[0] raises p's lower bound to its first separator.
	newLow := p.keyslice[0].Load()
	if idx == 0 {
		for i := 0; i < nk-1; i++ {
			p.keyslice[i].Store(p.keyslice[i+1].Load())
		}
		for i := 0; i < nk; i++ {
			p.child[i].Store(p.child[i+1].Load())
		}
	} else {
		for i := idx - 1; i < nk-1; i++ {
			p.keyslice[i].Store(p.keyslice[i+1].Load())
		}
		for i := idx; i < nk; i++ {
			p.child[i].Store(p.child[i+1].Load())
		}
	}
	p.nkeys.Store(int32(nk - 1))
	if idx == 0 {
		// p stays locked until the ancestor agrees, so no reader routes
		// the deleted range through p to its new, higher-keyed child[0].
		t.redirect(p, newLow)
	}
	p.h.unlock()
}

// redirect gives the range of p's just-removed leftmost child to p's left
// neighbour, as removeBorder already did in the border list ("range moves
// to p"). Without it, interior routing would hand that range to the right
// sibling instead, and a later insert would land below that node's lowkey.
// p's old lower bound is the separator in the nearest ancestor under which
// p's path is not the leftmost child; it is rewritten to newLow. This is
// the reference Masstree's redirect. Ancestors are locked bottom-up and
// hand-over-hand, as in ascend; p is locked throughout and stays locked.
//
//masstree:locked p
func (t *Tree) redirect(p *interiorNode, newLow uint64) {
	gp := p.h.lockParent()
	if gp == nil {
		// p is a tree root, whose lower bound is -inf: unreachable, because
		// a tree's leftmost border is never deleted.
		return
	}
	j := gp.childIndex(&p.h)
	for j == 0 {
		up := gp.h.lockParent()
		if up == nil {
			gp.h.unlock()
			return
		}
		j = up.childIndex(&gp.h)
		gp.h.unlock()
		gp = up
	}
	if j > 0 { // j < 0: no longer linked here, so nothing routes through it
		gp.h.markSplitting() // routing changes: readers retry from the root
		gp.keyslice[j-1].Store(newLow)
	}
	gp.h.unlock()
}

// scheduleCollapse queues a maintenance task to remove the (possibly) empty
// trie layer reached by the given key prefix (a multiple of 8 bytes).
func (t *Tree) scheduleCollapse(prefix []byte) {
	cp := append([]byte(nil), prefix...)
	t.maintMu.Lock()
	t.maint = append(t.maint, cp)
	t.maintMu.Unlock()
}

// PendingMaintenance returns the number of queued layer-collapse tasks.
func (t *Tree) PendingMaintenance() int {
	t.maintMu.Lock()
	defer t.maintMu.Unlock()
	return len(t.maint)
}

// Maintain runs queued maintenance tasks (empty-layer collapse), returning
// how many layers were collapsed. The paper schedules these through
// epoch-based reclamation; the kvstore invokes Maintain from its epoch
// ticker, and tests call it directly.
func (t *Tree) Maintain() int {
	t.maintMu.Lock()
	tasks := t.maint
	t.maint = nil
	t.maintMu.Unlock()
	done := 0
	for _, prefix := range tasks {
		if t.collapseLayer(prefix) {
			done++
		}
	}
	return done
}

// collapseLayer removes the trie layer at the given key prefix if it is
// still a single empty border node. It locks the owning border node in the
// parent layer and then the layer root — the only place two layers are
// locked together, always parent before child, so it cannot deadlock with
// normal operations (which lock at most one layer at a time, §4.6.5).
func (t *Tree) collapseLayer(prefix []byte) bool {
	root := t.rootHeader()
	k := prefix
	for {
		slice := keySlice(k)
		n, _ := t.findBorder(root, slice)
		n.h.lock()
		if isDeleted(n.h.version.Load()) {
			n.h.unlock()
			return false
		}
		for {
			next := n.next.Load()
			if next == nil || !next.keyGEqLowkey(slice) {
				break
			}
			next.h.lock()
			n.h.unlock()
			n = next
			if isDeleted(n.h.version.Load()) {
				n.h.unlock()
				return false
			}
		}
		perm := n.perm()
		rank, found := n.searchRank(perm, slice, 9)
		if !found {
			n.h.unlock()
			return false
		}
		slot := perm.slot(rank)
		if n.keylen[slot].Load() != klLayer {
			n.h.unlock()
			return false
		}
		if len(k) > 8 {
			// Intermediate layer: descend.
			lvp := n.loadLV(slot)
			n.h.unlock()
			root = t.resolveLayer(n, slot, lvp)
			k = k[8:]
			continue
		}

		// Final layer link. Collapse only if the layer is still one empty
		// border node; anything else was revived or grew.
		child := ascendToRoot((*nodeHeader)(n.loadLV(slot)))
		if !isBorder(child.version.Load()) {
			n.h.unlock()
			return false
		}
		b := child.border()
		b.h.lock()
		if isDeleted(b.h.version.Load()) || b.perm().count() != 0 || b.next.Load() != nil {
			b.h.unlock()
			n.h.unlock()
			return false
		}
		b.h.markSplitting()
		b.h.markDeleted()
		b.h.unlock()

		np := perm.remove(rank)
		n.permutation.Store(uint64(np))
		t.stats.LayerCollapses.Add(1)
		if np.count() == 0 {
			t.emptyBorder(n, prefix, len(prefix)/8-1) // unlocks n
		} else {
			n.h.unlock()
		}
		return true
	}
}
