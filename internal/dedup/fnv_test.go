package dedup

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// referenceShingles is the original hash/fnv-based implementation, kept here
// as the oracle for the allocation-free rewrite.
func referenceShingles(text string, k int) map[uint64]struct{} {
	if k <= 0 {
		k = 5
	}
	words := strings.Fields(text)
	out := make(map[uint64]struct{}, len(words))
	if len(words) == 0 {
		return out
	}
	if len(words) < k {
		h := fnv.New64a()
		h.Write([]byte(strings.Join(words, " ")))
		out[h.Sum64()] = struct{}{}
		return out
	}
	for i := 0; i+k <= len(words); i++ {
		h := fnv.New64a()
		for j := i; j < i+k; j++ {
			h.Write([]byte(words[j]))
			h.Write([]byte{0})
		}
		out[h.Sum64()] = struct{}{}
	}
	return out
}

// The inlined FNV must produce exactly the hash/fnv values: same shingle
// sets for arbitrary text, both below and above the k-word threshold.
func TestShinglesMatchStdlibFNV(t *testing.T) {
	fn := func(text string, kRaw uint8) bool {
		k := int(kRaw%7) + 1
		got := Shingles(text, k)
		want := referenceShingles(text, k)
		if len(got) != len(want) {
			return false
		}
		for _, h := range got {
			if _, ok := want[h]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestShinglesSortedUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	words := make([]string, 300)
	for i := range words {
		words[i] = fmt.Sprintf("w%02d", rng.Intn(40)) // force repeats
	}
	s := Shingles(strings.Join(words, " "), 3)
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatalf("not sorted/unique at %d: %d, %d", i, s[i-1], s[i])
		}
	}
	if !s.Contains(s[0]) || s.Contains(s[len(s)-1]+1) {
		t.Fatal("Contains broken")
	}
}

// A concurrent-prep + sequential-insert pipeline must behave exactly like
// direct Add calls.
func TestAddPreparedMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	texts := make([]string, 80)
	for i := range texts {
		texts[i] = strings.Join(randWords(rng, 120), " ")
	}
	texts[20] = texts[4]
	texts[70] = texts[33]

	opt := Options{Seed: 5, Threshold: 0.85}
	direct := NewIndex(opt)
	staged := NewIndex(opt)
	prep := staged.Preparer()
	for i, text := range texts {
		key := fmt.Sprintf("d%d", i)
		a := direct.Add(key, text)
		b := staged.AddPrepared(key, prep.Prepare(text))
		if a != b {
			t.Fatalf("doc %d: direct=%+v staged=%+v", i, a, b)
		}
	}
	ka, kb := direct.Keys(), staged.Keys()
	if len(ka) != len(kb) {
		t.Fatalf("kept %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("order diverged at %d", i)
		}
	}
}
