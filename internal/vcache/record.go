package vcache

import (
	"hash/maphash"
	"math/bits"
	"unsafe"
)

// record is one remembered audit verdict: the best match's global live
// index (-1 for no match) and score under snapshot version ver, beside the
// content's key. It holds no name and no pointer, so the collector never
// scans a table of them; a hit names the document from the snapshot of
// the same version, which indexes it exactly.
type record struct {
	key   Key
	ver   uint64
	score float64
	index int32
	clock uint8 // 0 = empty slot; else recLive with the clock's recRef / recHot
}

// Clock bits of a record, the entry ring's ref and hot.
const (
	recLive uint8 = 1 << iota
	recRef        // referenced since the hand last passed
	recHot        // protected generation
)

// recordBytes is what a resident record weighs: a slot of the table, which
// grows by half when it is 7/8 full and so stays between 7/12 and 7/8
// full, at 5/7 (close to the two bounds' geometric mean). The accounting
// is then within a fifth of the heap at any table size; TestFootprint
// holds it to what the heap reports.
const recordBytes = int64(unsafe.Sizeof(record{})) * 7 / 5

// recTable is a shard's audit records: an open-addressed, linear-probing
// table whose hash is keyed per store (a client cannot grind keys into one
// probe run), with backward-shift deletion, so it has no tombstones. The
// clock hand walks the slots directly. The owning shard's lock guards it.
type recTable struct {
	slots []record
	n     int // occupied slots
	hand  int
	seed  maphash.Seed
}

// home is the slot where k's probe run starts in a table of n slots.
func home(seed maphash.Seed, k Key, n int) int {
	hi, _ := bits.Mul64(maphash.Bytes(seed, k[:]), uint64(n))
	return int(hi)
}

// find returns the slot holding k, or -1.
//
//freehw:hotpath
func (t *recTable) find(k Key) int {
	if t.n == 0 {
		return -1
	}
	for i := home(t.seed, k, len(t.slots)); t.slots[i].clock != 0; i = t.next(i) {
		if t.slots[i].key == k {
			return i
		}
	}
	return -1
}

func (t *recTable) next(i int) int {
	if i++; i == len(t.slots) {
		return 0
	}
	return i
}

// insert stores r, whose key is not in the table, growing it first when it
// is 7/8 full.
func (t *recTable) insert(r record) {
	if 8*(t.n+1) > 7*len(t.slots) {
		old := t.slots
		t.slots = make([]record, max(8, len(old)+len(old)/2))
		t.hand = t.hand * len(t.slots) / max(1, len(old))
		t.n = 0
		for _, o := range old {
			if o.clock != 0 {
				t.insert(o)
			}
		}
	}
	i := home(t.seed, r.key, len(t.slots))
	for t.slots[i].clock != 0 {
		i = t.next(i)
	}
	t.slots[i] = r
	t.n++
}

// remove empties slot i and moves each later record of its probe run that
// may live there back into the hole, so every remaining key stays
// reachable from its home without a tombstone.
func (t *recTable) remove(i int) {
	dist := func(from, to int) int { // probe steps from slot from to slot to
		if to < from {
			to += len(t.slots)
		}
		return to - from
	}
	for j := t.next(i); t.slots[j].clock != 0; j = t.next(j) {
		if dist(home(t.seed, t.slots[j].key, len(t.slots)), j) >= dist(i, j) {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = record{}
	t.n--
}

// step visits the record under the clock hand (the table is not empty) and
// reports whether it evicted it. A visit downgrades a record as the entry
// ring's does: referenced to hot, hot to probation, probation out. The
// hand stays on an evicted record's slot, where remove may have moved the
// next record of its run.
func (t *recTable) step() bool {
	for t.slots[t.hand].clock == 0 {
		t.hand = t.next(t.hand)
	}
	r := &t.slots[t.hand]
	switch {
	case r.clock&recRef != 0:
		r.clock = recLive | recHot
	case r.clock&recHot != 0:
		r.clock = recLive
	default:
		t.remove(t.hand)
		return true
	}
	t.hand = t.next(t.hand)
	return false
}

// CachedBestMatch returns the audit verdict remembered for content k under
// snapshot version ver: the best match's global live index (-1 for no
// match) and its score. A verdict from any other version misses: it is a
// function of (content, index), and only the version identifies the index.
// The caller names the match from the snapshot of version ver. A hit is
// one shard lock and one probe.
//
//freehw:hotpath
func (s *Store) CachedBestMatch(k Key, ver uint64) (index int, score float64, ok bool) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	if i := sh.recs.find(k); i >= 0 {
		r := &sh.recs.slots[i]
		r.clock |= recRef
		if r.ver == ver {
			index, score, ok = int(r.index), r.score, true
		}
	}
	sh.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return index, score, ok
}

// StoreBestMatch remembers the audit verdict for content k computed under
// snapshot version ver. A write from a version older than the resident
// record's is dropped, so a slow batch finishing after a corpus swap
// cannot roll the record back to a stale index's verdict. A new record
// enters probation and is charged to the budget like an entry.
func (s *Store) StoreBestMatch(k Key, ver uint64, index int, score float64) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	if i := sh.recs.find(k); i < 0 {
		sh.recs.insert(record{key: k, ver: ver, score: score, index: int32(index), clock: recLive})
		s.grow(sh, recordBytes)
	} else if r := &sh.recs.slots[i]; r.ver <= ver {
		r.ver, r.score, r.index = ver, score, int32(index)
	}
	sh.mu.Unlock()
}
