package similarity

import (
	"hash/maphash"
	"math"
	"math/bits"
	"unsafe"
)

// dict is a segment's two dictionaries as flat, pointer-free tables: the same
// ones from a builder's first Add to a sealed segment's last audit, so nothing
// is frozen or copied at Seal, and however many terms a segment has the
// collector sees six slices. A query interns its own terms into one too
// (query, in similarity.go), under query ids.
//
// Unigram o — its ordinal: interning order, which is ascending id order — is
// the bytes arena[toff[o]:toff[o+1]] under postings id tid[o]; ttab is an
// open-addressed table holding ordinal+1 (0 empty) at the term's hash, with
// the hash's low bits in the bits above it that a table of 2^m slots leaves
// free, so a probe compares bytes only when those match too. A
// one-byte term is also at one[b], as id+1 (0 absent), which internTerm fills
// and lookup and internTerm read before hashing: Verilog is punctuation-dense
// — `;`, `(`, `=`, `,` — and one-byte terms are over half of bench/'s corpus
// tokens. The table is derived from the terms, never serialized.
// Bigrams are keyed by pairKey of their unigram ids: pkey is an open-addressed
// table holding key+1 (0 empty; a pairKey is below 2^63) and pid[slot] the
// postings id of the key at pkey[slot]. Both tables are a power of two long,
// probe linearly from the hash's top bits and double when an insertion would
// leave them more than 4/5 full.
//
// The Go maps these replaced were seeded and /v1/corpus takes uploads, so
// both hashes are seeded per process. Table layout is never serialized and
// nothing ordered is read off it, so no output depends on the seed.
type dict struct {
	arena []byte
	toff  []uint32
	tid   []int32
	ttab  []uint32
	pkey  []uint64
	pid   []int32
	pairs int
	one   [256]int32
}

var (
	dictSeed = maphash.MakeSeed()
	pairMul  = maphash.String(dictSeed, "pair") | 1 // odd: multiply-shift hashing of pair keys
)

// tabSize returns the smallest table that holds n keys at most 4/5 full.
func tabSize(n int) int {
	size := 8
	for size*4 < n*5 {
		size <<= 1
	}
	return size
}

// newDict returns an empty dictionary with room for terms unigrams of
// arena bytes in all and pairs bigrams: DecodeSegment knows the three
// up front and sizes every table once.
func newDict(terms, arena, pairs int) dict {
	return dict{
		arena: make([]byte, 0, arena),
		toff:  make([]uint32, 1, terms+1),
		tid:   make([]int32, 0, terms),
		ttab:  make([]uint32, tabSize(terms)),
		pkey:  make([]uint64, tabSize(pairs)),
		pid:   make([]int32, tabSize(pairs)),
	}
}

// reset empties d, keeping its tables' sizes.
func (d *dict) reset() {
	d.arena, d.toff, d.tid, d.pairs = d.arena[:0], d.toff[:1], d.tid[:0], 0
	clear(d.ttab)
	clear(d.pkey)
	clear(d.one[:])
}

// bstr views b as a string, for a callee that only reads it.
func bstr(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// slot is where hash h starts probing a table of n slots: its top bits.
func slot(h uint64, n int) int { return int(h >> bits.LeadingZeros64(uint64(n-1))) }

// termBytes returns the bytes of the unigram with ordinal o.
func (d *dict) termBytes(o int) []byte { return d.arena[d.toff[o]:d.toff[o+1]] }

// termHash is unigram t's hash in every dictionary: they share dictSeed.
func termHash(t string) uint64 { return maphash.String(dictSeed, t) }

// findTerm returns unigram t's postings id and table slot, or -1 and the
// empty slot its probe ended at; h is termHash(t).
func (d *dict) findTerm(t string, h uint64) (id int32, at int) {
	mask := uint32(len(d.ttab) - 1)
	for at = slot(h, len(d.ttab)); ; at = (at + 1) & int(mask) {
		switch e := d.ttab[at]; {
		case e == 0:
			return -1, at
		case e&^mask == uint32(h)&^mask && string(d.termBytes(int(e&mask)-1)) == t:
			return d.tid[e&mask-1], at
		}
	}
}

// lookup returns unigram t's id, or -1; h is termHash(t), unread for a
// one-byte term.
func (d *dict) lookup(t string, h uint64) int32 {
	if len(t) == 1 {
		return d.one[t[0]] - 1
	}
	id, _ := d.findTerm(t, h)
	return id
}

// next returns the id the next new term gets: unigrams and bigrams share one
// id space. Past 2^31-1 terms it panics rather than wrap.
func (d *dict) next() int32 {
	n := len(d.tid) + d.pairs
	if n >= math.MaxInt32 {
		panic("similarity: more than 2^31-1 distinct terms")
	}
	return int32(n)
}

// internTerm returns the id unigram t is under: id, with a copy of t added,
// when t is new. id must exceed every unigram id before it. It returns
// termHash(t) too, or 0 for a one-byte term it already holds.
func (d *dict) internTerm(t string, id int32) (int32, uint64) {
	if len(t) == 1 && d.one[t[0]] != 0 {
		return d.one[t[0]] - 1, 0
	}
	h := termHash(t)
	have, at := d.findTerm(t, h)
	if have >= 0 {
		return have, h
	}
	if uint64(len(d.arena))+uint64(len(t)) > math.MaxUint32 {
		panic("similarity: more than 2^32 bytes of unigrams")
	}
	if (len(d.tid)+1)*5 > len(d.ttab)*4 {
		d.ttab = make([]uint32, 2*len(d.ttab))
		for o := range d.tid {
			u := bstr(d.termBytes(o))
			hu := termHash(u)
			_, at := d.findTerm(u, hu)
			d.ttab[at] = uint32(hu)&^uint32(len(d.ttab)-1) | uint32(o+1)
		}
		_, at = d.findTerm(t, h)
	}
	d.arena = append(d.arena, t...)
	d.toff = append(d.toff, uint32(len(d.arena)))
	d.tid = append(d.tid, id)
	d.ttab[at] = uint32(h)&^uint32(len(d.ttab)-1) | uint32(len(d.tid))
	if len(t) == 1 {
		d.one[t[0]] = id + 1
	}
	return id, h
}

// findPair is findTerm for the bigram with key k.
func (d *dict) findPair(k uint64) (id int32, at int) {
	mask := len(d.pkey) - 1
	for at = slot(k*pairMul, len(d.pkey)); ; at = (at + 1) & mask {
		switch d.pkey[at] {
		case k + 1:
			return d.pid[at], at
		case 0:
			return -1, at
		}
	}
}

// internPair is internTerm for the bigram with key k.
func (d *dict) internPair(k uint64, id int32) int32 {
	have, at := d.findPair(k)
	if have >= 0 {
		return have
	}
	if (d.pairs+1)*5 > len(d.pkey)*4 {
		oldKey, oldID := d.pkey, d.pid
		d.pkey, d.pid = make([]uint64, 2*len(oldKey)), make([]int32, 2*len(oldKey))
		for i, k1 := range oldKey {
			if k1 != 0 {
				_, at := d.findPair(k1 - 1)
				d.pkey[at], d.pid[at] = k1, oldID[i]
			}
		}
		_, at = d.findPair(k)
	}
	d.pkey[at], d.pid[at] = k+1, id
	d.pairs++
	return id
}

// pairsByID scatters the bigram keys by postings id: key+1 where an id below
// lists names a bigram, 0 where it names a unigram. At 8 bytes a list it is
// the only id-indexed form of the dictionaries that encoding or merging
// builds; the unigrams are already in id order in the arena.
func (d *dict) pairsByID(lists int) []uint64 {
	byID := make([]uint64, lists)
	for at, k1 := range d.pkey {
		if k1 != 0 {
			byID[d.pid[at]] = k1
		}
	}
	return byID
}
