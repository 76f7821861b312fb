package dedup

import (
	"math/rand"
	"testing"
)

// naiveSign is the pre-batching reference kernel: for each shingle, scan
// every permutation. The batched kernel must reproduce it bit for bit.
func naiveSign(m *MinHasher, shingles ShingleSet) Signature {
	sig := make(Signature, len(m.a))
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, x := range shingles {
		for i := range m.a {
			h := m.a[i]*x + m.b[i]
			if h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

func randShingles(rng *rand.Rand, n int) ShingleSet {
	out := make(ShingleSet, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

func TestSignMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, perms := range []int{1, 3, 4, 7, 32, 128, 130} {
		m := NewMinHasher(perms, 99)
		for _, sz := range []int{0, 1, 2, 17, 500} {
			sh := randShingles(rng, sz)
			want := naiveSign(m, sh)
			got := m.Sign(sh)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("perms=%d size=%d: Sign[%d] = %#x, want %#x", perms, sz, i, got[i], want[i])
				}
			}
		}
	}
}
