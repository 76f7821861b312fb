package similarity

import (
	"math"
	"math/rand"
	"testing"
)

// dict against the Go maps it replaced, over random unigrams (the
// zero-length term a decoder may be handed, one-byte terms, invalid UTF-8,
// repeats) and random pair keys (key 0, repeats) under ids up to 2^31-1:
// every intern and lookup agrees with the oracle, by string and by []byte,
// through the one-byte table and the hash table, present and absent, and at every doubling of either table every key interned so far
// is still there. Grown from empty, as a builder does, and sized once from
// the counts, as DecodeSegment does — which must then never double.
func TestDictAgainstMaps(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(24))
	randTerm := func() string {
		b := make([]byte, rng.Intn(7))
		for i := range b {
			b[i] = "ab_1\xff\xc3"[rng.Intn(6)]
		}
		return string(b)
	}
	randKey := func() uint64 { return pairKey(int32(rng.Intn(60)), int32(rng.Intn(60))) }
	inTerms, inKeys := []string{""}, []uint64{0}
	for len(inTerms) < n {
		inTerms, inKeys = append(inTerms, randTerm()), append(inKeys, randKey())
	}
	inTerms[n-1], inKeys[n-1] = "new at the last step", pairKey(math.MaxInt32, math.MaxInt32) // so ids reach 2^31-1
	wantTerms, wantPairs := map[string]int32{}, map[uint64]int32{}
	for i := range inTerms {
		wantTerms[inTerms[i]], wantPairs[inKeys[i]] = 0, 0
	}

	for _, presized := range []bool{false, true} {
		d := newDict(0, 0, 0)
		if presized {
			d = newDict(len(wantTerms), 7*len(wantTerms), len(wantPairs))
		}
		clear(wantTerms)
		clear(wantPairs)
		var order []string // distinct terms as interned: the ordinals
		checkAll := func(when string) {
			t.Helper()
			if len(d.tid) != len(wantTerms) || d.pairs != len(wantPairs) {
				t.Fatalf("%s: %d unigrams and %d bigrams, want %d and %d", when, len(d.tid), d.pairs, len(wantTerms), len(wantPairs))
			}
			for o, term := range order {
				if got := string(d.termBytes(o)); got != term || d.tid[o] != wantTerms[term] {
					t.Fatalf("%s: ordinal %d is %q under id %d, want %q under %d", when, o, got, d.tid[o], term, wantTerms[term])
				}
				if id, _ := d.findTerm(term, termHash(term)); id != wantTerms[term] || d.lookup(term, termHash(term)) != id {
					t.Fatalf("%s: findTerm(%q) = %d, lookup %d, want %d", when, term, id, d.lookup(term, termHash(term)), wantTerms[term])
				}
			}
			for k, want := range wantPairs {
				if id, _ := d.findPair(k); id != want {
					t.Fatalf("%s: findPair(%#x) = %d, want %d", when, k, id, want)
				}
			}
		}
		id := int32(0)
		for i := range inTerms {
			tabs := len(d.ttab) + len(d.pkey)
			if i == n-1 {
				id = math.MaxInt32 - 1
			}
			term, key := inTerms[i], inKeys[i]
			want, had := wantTerms[term]
			if !had {
				want, wantTerms[term], order = id, id, append(order, term)
			}
			if got, h := d.internTerm(term, id); got != want || h != termHash(term) && (len(term) > 1 || !had || h != 0) {
				t.Fatalf("internTerm(%q, %d) = %d, %#x, want %d, %#x", term, id, got, h, want, termHash(term))
			}
			id++
			want, had = wantPairs[key]
			if !had {
				want, wantPairs[key] = id, id
			}
			if got := d.internPair(key, id); got != want {
				t.Fatalf("internPair(%#x, %d) = %d, want %d", key, id, got, want)
			}
			id += int32(rng.Intn(3))

			probe, probeKey := randTerm(), randKey()
			if want, had = wantTerms[probe]; !had {
				want = -1
			}
			if got, _ := d.findTerm(probe, termHash(probe)); got != want || d.lookup(probe, termHash(probe)) != want {
				t.Fatalf("findTerm(%q) = %d, lookup %d, want %d", probe, got, d.lookup(probe, termHash(probe)), want)
			}
			if got, _ := d.findTerm(bstr([]byte(probe)), termHash(bstr([]byte(probe)))); got != want {
				t.Fatalf("findTerm(%q) by []byte = %d, want %d", probe, got, want)
			}
			if want, had = wantPairs[probeKey]; !had {
				want = -1
			}
			if got, _ := d.findPair(probeKey); got != want {
				t.Fatalf("findPair(%#x) = %d, want %d", probeKey, got, want)
			}
			if len(d.ttab)+len(d.pkey) != tabs {
				if presized {
					t.Fatalf("a table sized for %d unigrams and %d bigrams doubled at %d and %d", cap(d.tid), len(wantPairs), len(d.tid), d.pairs)
				}
				checkAll("after doubling")
			}
		}
		checkAll("at the end")
		for _, tab := range [][2]int{{len(d.tid), len(d.ttab)}, {d.pairs, len(d.pkey)}} {
			if keys, slots := tab[0], tab[1]; 5*keys > 4*slots || 10*keys <= 4*slots {
				t.Fatalf("%d keys in %d slots: not the smallest table at most 4/5 full", keys, slots)
			}
		}
	}
}
