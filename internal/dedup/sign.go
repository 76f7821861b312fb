package dedup

// The MinHash signing kernel. The naive loop (for each shingle, scan all
// permutations) streams the whole signature through the store buffer once
// per shingle. The batched kernel below instead fixes a small block of
// permutations, keeps their running minima in registers, and streams the
// sorted shingle slice once per block: the hot loop touches no memory but
// the shingle stream, which the prefetcher handles, and the per-iteration
// work is four independent multiply-add/min chains the CPU can overlap.
// pprof attributed ~16% of single-core curation to the naive kernel (see
// ROADMAP "Measured performance").

// signBlock is the number of permutations whose running minima stay in
// registers while the shingle slice streams past. Four keeps the working
// set (4 minima + 4 multipliers + 4 offsets + the shingle) within the
// amd64 general-purpose register file.
const signBlock = 4

// Sign computes the MinHash signature of a shingle set, in signBlock-wide
// register blocks.
func (m *MinHasher) Sign(shingles ShingleSet) Signature {
	sig := make(Signature, len(m.a))
	i := 0
	for ; i+signBlock <= len(sig); i += signBlock {
		a0, a1, a2, a3 := m.a[i], m.a[i+1], m.a[i+2], m.a[i+3]
		b0, b1, b2, b3 := m.b[i], m.b[i+1], m.b[i+2], m.b[i+3]
		m0, m1, m2, m3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
		for _, x := range shingles {
			if h := a0*x + b0; h < m0 {
				m0 = h
			}
			if h := a1*x + b1; h < m1 {
				m1 = h
			}
			if h := a2*x + b2; h < m2 {
				m2 = h
			}
			if h := a3*x + b3; h < m3 {
				m3 = h
			}
		}
		sig[i], sig[i+1], sig[i+2], sig[i+3] = m0, m1, m2, m3
	}
	for ; i < len(sig); i++ {
		a, b := m.a[i], m.b[i]
		mn := ^uint64(0)
		for _, x := range shingles {
			if h := a*x + b; h < mn {
				mn = h
			}
		}
		sig[i] = mn
	}
	return sig
}
