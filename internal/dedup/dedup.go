// Package dedup implements the de-duplication stage of the FreeSet curation
// pipeline: token shingling, MinHash signatures, banded locality-sensitive
// hashing, and exact Jaccard verification, following the method VeriGen
// describes and the paper adopts (§III-D: MinHash + Jaccard at threshold
// 0.85, LSH for efficient candidate lookup).
//
// There is one index and one insertion order: documents are offered one at
// a time, the first offered is the one kept, and a duplicate names the most
// similar kept document — on a Jaccard tie the first kept document met,
// bands ascending. Nothing here depends on a worker count.
package dedup

import (
	"slices"
	"sort"
	"strings"
)

// FNV-1a 64-bit parameters. Shingle and band hashing inline the algorithm
// instead of allocating a hash/fnv object per shingle; the values produced
// are identical to hash/fnv's (dedup_test.go proves it against the stdlib).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// ShingleSet is a document's shingle hashes as a sorted, duplicate-free
// slice. The slice form keeps Jaccard a linear merge and MinHash signing a
// sequential scan, with none of the per-document map allocations the
// original map[uint64]struct{} representation paid.
type ShingleSet []uint64

// Contains reports set membership (binary search).
func (s ShingleSet) Contains(h uint64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= h })
	return i < len(s) && s[i] == h
}

// Shingles splits text into k-token shingles and returns their 64-bit FNV
// hashes as a sorted set. Tokens are whitespace-separated words, which is
// robust to reformatting while staying cheap.
func Shingles(text string, k int) ShingleSet {
	if k <= 0 {
		k = 5
	}
	words := strings.Fields(text)
	if len(words) == 0 {
		return ShingleSet{}
	}
	if len(words) < k {
		// One shingle over the words joined by single spaces.
		h := uint64(fnvOffset64)
		for i, w := range words {
			if i > 0 {
				h ^= ' '
				h *= fnvPrime64
			}
			h = fnvString(h, w)
		}
		return ShingleSet{h}
	}
	out := make(ShingleSet, 0, len(words)-k+1)
	// Four independent window chains per iteration: FNV is a serial
	// multiply chain, so a single window leaves the multiplier idle most
	// cycles. Interleaving four windows lets the CPU overlap the chains
	// (the same register-blocking idiom as the batched MinHash kernel in
	// sign.go) while producing bit-identical hashes — the stdlib-FNV
	// oracle test pins that.
	i := 0
	for ; i+3+k <= len(words); i += 4 {
		h0 := uint64(fnvOffset64)
		h1 := uint64(fnvOffset64)
		h2 := uint64(fnvOffset64)
		h3 := uint64(fnvOffset64)
		for j := 0; j < k; j++ {
			// NUL separator between tokens, matching the original encoding
			// (xor 0 is the identity, leaving just the multiply).
			h0 = fnvString(h0, words[i+j]) * fnvPrime64
			h1 = fnvString(h1, words[i+1+j]) * fnvPrime64
			h2 = fnvString(h2, words[i+2+j]) * fnvPrime64
			h3 = fnvString(h3, words[i+3+j]) * fnvPrime64
		}
		out = append(out, h0, h1, h2, h3)
	}
	for ; i+k <= len(words); i++ {
		h := uint64(fnvOffset64)
		for j := i; j < i+k; j++ {
			h = fnvString(h, words[j])
			h *= fnvPrime64
		}
		out = append(out, h)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Jaccard computes |a∩b| / |a∪b| over sorted shingle sets with a linear
// merge.
func Jaccard(a, b ShingleSet) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// overlap returns |a∩b| by Jaccard's merge, or false as soon as the
// intersection so far plus the shingles left in the smaller remainder fall
// short of need, which must not exceed min(|a|, |b|).
func overlap(a, b ShingleSet, need int) (int, bool) {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
			continue // the best case stands
		case a[i] < b[j]:
			i++
		default:
			j++
		}
		if inter+min(len(a)-i, len(b)-j) < need {
			return inter, false
		}
	}
	return inter, inter >= need
}

// Signature is a MinHash signature: one minimum per permutation.
type Signature []uint64

// MinHasher derives MinHash signatures with n hash permutations of the form
// h_i(x) = a_i*x + b_i (odd multipliers, 64-bit wraparound).
type MinHasher struct {
	a []uint64
	b []uint64
}

// NewMinHasher builds a hasher with n permutations from a seed.
func NewMinHasher(n int, seed uint64) *MinHasher {
	if n <= 0 {
		n = 128
	}
	m := &MinHasher{a: make([]uint64, n), b: make([]uint64, n)}
	s := splitmix(seed)
	for i := 0; i < n; i++ {
		m.a[i] = s.next() | 1 // odd multiplier: bijection mod 2^64
		m.b[i] = s.next()
	}
	return m
}

// Sign is implemented in sign.go (register-blocked batched kernel).

// splitmix is SplitMix64, used to derive permutation parameters.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Normalized returns opt with defaults filled in — the form under which two
// Options values are comparable (vcache keys its shared stores by it).
func (opt Options) Normalized() Options { return opt.normalize() }

// normalize fills in Options defaults; Preparer and Index must agree on the
// resolved values, so both construct through this.
func (opt Options) normalize() Options {
	if opt.Permutations <= 0 {
		opt.Permutations = 128
	}
	if opt.Bands <= 0 {
		opt.Bands = 32
	}
	if opt.Permutations%opt.Bands != 0 {
		opt.Permutations = opt.Bands * ((opt.Permutations + opt.Bands - 1) / opt.Bands)
	}
	if opt.Threshold == 0 {
		opt.Threshold = 0.85
	}
	if opt.ShingleK <= 0 {
		opt.ShingleK = 5
	}
	return opt
}

// Prepared is the per-document precomputation an Index consumes: shingles
// and per-band LSH hashes. The MinHash signature the bands are hashed from
// is read by nothing after, so it is not kept. Preparing documents is
// side-effect free, so a batch can be prepared concurrently and fed to the
// sequential Index insert that preserves first-seen-kept order.
type Prepared struct {
	Shingles ShingleSet
	Bands    []uint64
}

// Preparer computes Prepared documents for a given Options. A Preparer and
// an Index built from the same Options are compatible.
type Preparer struct {
	hasher   *MinHasher
	bands    int
	rows     int
	shingleK int
}

// NewPreparer builds a Preparer for opt.
func NewPreparer(opt Options) *Preparer {
	opt = opt.normalize()
	return &Preparer{
		hasher:   NewMinHasher(opt.Permutations, opt.Seed+0x5eed),
		bands:    opt.Bands,
		rows:     opt.Permutations / opt.Bands,
		shingleK: opt.ShingleK,
	}
}

// Prepare computes a document's shingles, and its band hashes from its signature.
func (p *Preparer) Prepare(text string) Prepared {
	sh := Shingles(text, p.shingleK)
	sig := p.hasher.Sign(sh)
	bands := make([]uint64, p.bands)
	for b := 0; b < p.bands; b++ {
		h := uint64(fnvOffset64)
		for r := b * p.rows; r < (b+1)*p.rows; r++ {
			v := sig[r]
			for i := 0; i < 64; i += 8 {
				h ^= uint64(byte(v >> i))
				h *= fnvPrime64
			}
		}
		bands[b] = h
	}
	return Prepared{Shingles: sh, Bands: bands}
}

// Index is a banded LSH index over MinHash signatures. Two documents become
// dedup candidates when they agree on all rows of at least one band; the
// exact Jaccard over shingles then decides. Insertion is sequential and in
// offer order: only kept documents are candidates, so a duplicate of a
// duplicate is kept when it matches no kept document. An Index is not safe
// for concurrent use; what scales with cores is Preparer.Prepare, which
// callers fan out ahead of the inserts.
type Index struct {
	prep      *Preparer
	threshold float64

	buckets []map[uint64][]int // per band: band-hash -> kept doc ids, ascending
	docs    []doc

	// seen[id] == gen marks kept document id as already a candidate of the
	// insert in progress; each AddPrepared is a new generation, so nothing is
	// cleared between inserts.
	seen []uint32
	gen  uint32
}

type doc struct {
	key      string
	shingles ShingleSet
}

// Options configures an Index.
type Options struct {
	Permutations int     // MinHash permutations (default 128)
	Bands        int     // LSH bands (default 32; rows = permutations/bands)
	Threshold    float64 // Jaccard duplicate threshold (default 0.85)
	ShingleK     int     // tokens per shingle (default 5)
	Seed         uint64
}

// NewShardedIndex is NewIndex. The two ints were the shard and worker counts
// of a second, wave-parallel insertion that was deleted (ROADMAP decision
// records, PR 19); the name and signature stay only because frozen bench/
// compiles against them, and go in the next benchmark PR.
func NewShardedIndex(opt Options, _, _ int) *Index { return NewIndex(opt) }

// NewIndex builds an empty LSH index.
func NewIndex(opt Options) *Index {
	opt = opt.normalize()
	idx := &Index{
		prep:      NewPreparer(opt),
		threshold: opt.Threshold,
		buckets:   make([]map[uint64][]int, opt.Bands),
	}
	for i := range idx.buckets {
		idx.buckets[i] = map[uint64][]int{}
	}
	return idx
}

// Len returns the number of retained (unique) documents.
func (x *Index) Len() int { return len(x.docs) }

// Preparer returns a Preparer compatible with this index, for concurrent
// batch preparation ahead of sequential AddPrepared calls.
func (x *Index) Preparer() *Preparer { return x.prep }

// AddResult reports what happened to a document offered to the index.
type AddResult struct {
	Unique bool
	// DupOfKey is the retained document this one duplicates (when !Unique):
	// the most similar kept candidate, and among candidates that tie on
	// Jaccard the first one met, scanning bands in ascending order and each
	// bucket in insertion order.
	DupOfKey string
	// Similarity is the verified Jaccard similarity to DupOfKey.
	Similarity float64
}

// Add offers a document; it is retained iff no prior document matches at or
// above the threshold. The key identifies the document in results.
func (x *Index) Add(key, text string) AddResult {
	return x.AddPrepared(key, x.prep.Prepare(text))
}

// AddPrepared offers a document whose shingles/signature/band hashes were
// computed by a compatible Preparer (same Options). Insertions are strictly
// ordered: the first document offered wins over later duplicates.
//
// A candidate's Jaccard I/(|A|+|B|-I) grows with the intersection I, and
// rounding keeps the order, so it qualifies only if I reaches need: the least
// I whose Jaccard, computed as Jaccard computes it, is at least the threshold
// and above the best similarity so far (a new best needs a strictly greater
// one). I is at most min(|A|,|B|), so a candidate that even that cannot
// qualify is not verified at all (the size bound), and the merge stops as
// soon as the intersection so far plus the shingles left in the smaller
// remainder fall short of need (positional filtering, after Bayardo et al.
// and PPJoin). Either way the candidate could neither make the document a
// duplicate nor become the one it duplicates. Two empty sets are the
// exception: their Jaccard is 1, not 0/0.
func (x *Index) AddPrepared(key string, p Prepared) AddResult {
	if x.gen++; x.gen == 0 { // wrapped: a stamp 2^32 inserts old would read as current
		clear(x.seen)
		x.gen = 1
	}
	bestSim := 0.0
	bestID := -1
	for b := range x.buckets {
		for _, id := range x.buckets[b][p.Bands[b]] {
			if x.seen[id] == x.gen {
				continue
			}
			x.seen[id] = x.gen
			kept := x.docs[id].shingles
			sim := 1.0
			if la, lb := len(p.Shingles), len(kept); la+lb > 0 {
				qualifies := func(i int) bool {
					j := float64(i) / float64(la+lb-i)
					return j >= x.threshold && j > bestSim
				}
				if !qualifies(min(la, lb)) {
					continue
				}
				inter, ok := overlap(p.Shingles, kept, sort.Search(min(la, lb), qualifies))
				if !ok {
					continue
				}
				sim = float64(inter) / float64(la+lb-inter)
			}
			if sim > bestSim {
				bestSim = sim
				bestID = id
			}
		}
	}
	if bestID >= 0 && bestSim >= x.threshold {
		return AddResult{Unique: false, DupOfKey: x.docs[bestID].key, Similarity: bestSim}
	}
	id := len(x.docs)
	x.docs = append(x.docs, doc{key: key, shingles: p.Shingles})
	x.seen = append(x.seen, 0)
	for b := range x.buckets {
		x.buckets[b][p.Bands[b]] = append(x.buckets[b][p.Bands[b]], id)
	}
	return AddResult{Unique: true}
}

// AddAll offers documents in order through AddPrepared; the result at index
// i reports document i's fate.
func (x *Index) AddAll(keys []string, preps []Prepared) []AddResult {
	out := make([]AddResult, len(keys))
	for i := range keys {
		out[i] = x.AddPrepared(keys[i], preps[i])
	}
	return out
}

// Keys returns the retained document keys in insertion order.
func (x *Index) Keys() []string {
	out := make([]string, len(x.docs))
	for i, d := range x.docs {
		out[i] = d.key
	}
	return out
}
