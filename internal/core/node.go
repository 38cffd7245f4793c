package core

import (
	"sync/atomic"
	"unsafe"
)

// width is the B+-tree fanout: keys per node (paper §4.2). Nodes of four
// 64-byte cache lines allow a fanout of 15, which the paper measured as the
// best total performance; wide nodes are prefetched in one DRAM round trip.
const width = 15

// nodeHeader is the common prefix of interior and border nodes: the version
// word and the parent pointer. It must be the first field of both node types
// so that a *nodeHeader can be converted back to the concrete node; the
// isborder version bit discriminates.
//
// A node's parent pointer is protected by the *parent's* lock (§4.5), so an
// interior split can reassign its children's parents without their locks.
type nodeHeader struct {
	version atomic.Uint64
	parent  atomic.Pointer[interiorNode]
}

// border converts the header back to its border node. The caller must know
// (via the isborder bit) that the node is a border node.
func (h *nodeHeader) border() *borderNode { return (*borderNode)(unsafe.Pointer(h)) }

// interior converts the header back to its interior node.
func (h *nodeHeader) interior() *interiorNode { return (*interiorNode)(unsafe.Pointer(h)) }

// interiorNode is an internal B+-tree node (Figure 2): nkeys key slices and
// nkeys+1 children. keyslice[i] is the inclusive lower bound of child[i+1].
// All fields after the header are written only under the node lock and read
// optimistically (validated by version snapshots), hence the atomics.
type interiorNode struct {
	h        nodeHeader
	nkeys    atomic.Int32
	keyslice [width]atomic.Uint64
	child    [width + 1]atomic.Pointer[nodeHeader]
}

// borderNode is a leaf-level node (Figure 2). Border nodes of a tree are
// doubly linked; next/prev speed range queries and are required by concurrent
// remove. A border node's prev pointer is protected by its previous sibling's
// lock; next by its own.
//
// lv[i] is the paper's link_or_value union: it holds either a *value.Value
// or, when keylen[i] == klLayer, a *nodeHeader for the next trie layer.
// keylen discriminates; lv is accessed only with atomic pointer operations.
type borderNode struct {
	h           nodeHeader
	permutation atomic.Uint64
	next        atomic.Pointer[borderNode]
	prev        atomic.Pointer[borderNode]

	// lowSlice/lowOrd form lowkey(n), the inclusive lower bound of the
	// node's key range. lowkey is constant over a node's lifetime (§4.6.4);
	// lowOrd == -1 means negative infinity (the tree's initial, leftmost
	// node, which is never deleted while the tree exists).
	lowSlice uint64
	lowOrd   int

	keyslice [width]atomic.Uint64
	keylen   [width]atomic.Uint32
	suffix   [width]atomic.Pointer[[]byte]
	lv       [width]unsafe.Pointer

	// usedMask tracks slots that have ever held a visible key. Reusing such
	// a slot must dirty the version (inserting) so concurrent readers that
	// located the old key in this slot retry (§4.6.5). Protected by the
	// node lock.
	usedMask uint16
}

// newBorder allocates a border node. rootTree marks it the root of a
// (possibly new) B+-tree layer; locked determines whether it starts locked.
func newBorder(rootTree, locked bool) *borderNode {
	n := &borderNode{lowOrd: -1}
	v := borderBit
	if rootTree {
		v |= rootBit
	}
	if locked {
		v |= lockBit
	}
	n.h.initVersion(v)
	n.permutation.Store(uint64(emptyPermutation()))
	return n
}

// newInterior allocates an interior node with the given extra version bits.
func newInterior(bits uint64) *interiorNode {
	n := &interiorNode{}
	n.h.initVersion(bits)
	return n
}

func (n *borderNode) perm() permutation { return permutation(n.permutation.Load()) }

func (n *borderNode) loadLV(slot int) unsafe.Pointer {
	return atomic.LoadPointer(&n.lv[slot])
}

func (n *borderNode) storeLV(slot int, p unsafe.Pointer) {
	atomic.StorePointer(&n.lv[slot], p)
}

func (n *borderNode) casLV(slot int, old, new unsafe.Pointer) bool {
	return atomic.CompareAndSwapPointer(&n.lv[slot], old, new)
}

// searchRank scans the live keys in permutation order for the search key
// (slice, ord). It returns the key's rank if found, or the rank at which the
// key would be inserted. Linear search: the paper found it as fast or faster
// than binary search at this fanout due to locality (§4.8).
//
// The reads race with writers; callers must validate the node version before
// trusting the result.
func (n *borderNode) searchRank(p permutation, slice uint64, ord int) (rank int, found bool) {
	cnt := p.count()
	for rank = 0; rank < cnt; rank++ {
		slot := p.slot(rank)
		ks := n.keyslice[slot].Load()
		if ks < slice {
			continue
		}
		if ks > slice {
			return rank, false
		}
		ko := ordOf(n.keylen[slot].Load())
		if ko < ord {
			continue
		}
		return rank, ko == ord
	}
	return cnt, false
}

// keyGEqLowkey reports whether a key with the given slice is at or beyond
// lowkey(n), i.e. could live in n or to its right. Because splits only ever
// fall on slice boundaries (§4.2: all keys with one slice share a border
// node), lowkey comparisons consider the slice alone: a node whose first key
// is (S, len 3) still owns every key with slice S, including shorter ones
// inserted later.
func (n *borderNode) keyGEqLowkey(slice uint64) bool {
	if n.lowOrd < 0 {
		return true
	}
	return slice >= n.lowSlice
}

// childFor returns the child covering the given key slice: child index is
// the number of keys <= slice, since keyslice[i] is the inclusive lower
// bound of child[i+1]. Races are validated by the caller's version checks;
// torn reads can only misroute, never crash, because stale children remain
// structurally valid.
func (in *interiorNode) childFor(slice uint64) *nodeHeader {
	nk := int(in.nkeys.Load())
	if nk < 0 {
		nk = 0
	} else if nk > width {
		nk = width
	}
	i := 0
	for i < nk && slice >= in.keyslice[i].Load() {
		i++
	}
	return in.child[i].Load()
}

// childIndex returns the index of child among the locked node's children,
// or -1 if it is not linked here.
func (in *interiorNode) childIndex(child *nodeHeader) int {
	nk := int(in.nkeys.Load())
	for i := 0; i <= nk; i++ {
		if in.child[i].Load() == child {
			return i
		}
	}
	return -1
}

// lockParent implements Figure 4's lockedparent: lock n's parent, retrying
// if the parent changes underneath us (an interior split can move n to a new
// parent without n's lock). Returns nil if n is a root. The caller must hold
// n's lock, which pins a nil parent (only n's own split can give it one).
//
//masstree:returns-locked
func (h *nodeHeader) lockParent() *interiorNode {
	for {
		p := h.parent.Load()
		if p == nil {
			return nil
		}
		p.h.lock()
		if h.parent.Load() == p {
			return p
		}
		p.h.unlock()
	}
}

// ascendToRoot walks parent pointers until reaching a node marked isroot
// (or with no parent). Used to recover from stale root pointers after root
// splits, which are repaired lazily (§4.6.4).
func ascendToRoot(h *nodeHeader) *nodeHeader {
	for !isRoot(h.version.Load()) {
		p := h.parent.Load()
		if p == nil {
			return h
		}
		h = &p.h
	}
	return h
}

// findBorder descends from root to the border node responsible for the key
// slice, using hand-over-hand version validation (Figure 6): a child's
// version is loaded before double-checking the parent's, so any split that
// could have moved the key is detected. A split retries from the root
// (counted in Stats.RootRetries); other changes retry from the current node
// (Stats.LocalRetries).
func (t *Tree) findBorder(root *nodeHeader, slice uint64) (*borderNode, uint64) {
retry:
	n := root
	v := n.stable()
	if !isRoot(v) {
		root = ascendToRoot(root)
		goto retry
	}
	for {
		if isBorder(v) {
			return n.border(), v
		}
		n1 := n.interior().childFor(slice)
		if n1 == nil {
			// Mid-shift or deleted interior; revalidate and retry.
			v1 := n.stable()
			if vsplit(v1) != vsplit(v) {
				t.stats.RootRetries.Add(1)
				goto retry
			}
			v = v1
			t.stats.LocalRetries.Add(1)
			continue
		}
		v1 := n1.stable()
		if !changed(n.version.Load(), v) {
			n = n1
			v = v1
			continue
		}
		v2 := n.stable()
		if vsplit(v2) != vsplit(v) {
			t.stats.RootRetries.Add(1)
			goto retry // split moved our range; retry from the root
		}
		v = v2 // an insert; retry from this node
		t.stats.LocalRetries.Add(1)
	}
}
