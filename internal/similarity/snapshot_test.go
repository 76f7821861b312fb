package similarity

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The sealed-writer guarantee: once Seal has handed the segment to
// readers, the builder can no longer write to it — Add, Len and Seal panic
// by name (Len used to dereference the nil segment), and the attempts leave
// the sealed segment's verdicts untouched.
func TestSealedBuilderRejectsAdd(t *testing.T) {
	b := NewSegmentBuilder()
	b.Add("a", "alpha beta")
	b.Add("b", "alpha gamma delta")
	snap := SnapshotOf([]*Segment{b.Seal()}, nil)
	queries := []string{"alpha beta", "gamma delta", "alpha"}
	var want [][]Match
	for _, q := range queries {
		want = append(want, append(snap.TopK(q, 2), snap.Best(q)))
	}
	for op, call := range map[string]func(){
		"Add":  func() { b.Add("c", "alpha beta gamma delta") },
		"Len":  func() { b.Len() },
		"Seal": func() { b.Seal() },
	} {
		func() {
			defer func() {
				if got, want := recover(), "similarity: "+op+" on a sealed SegmentBuilder"; got != want {
					t.Fatalf("%s on a sealed builder: recovered %v, want panic %q", op, got, want)
				}
			}()
			call()
		}()
	}
	if snap.Len() != 2 {
		t.Fatalf("sealed segment grew to %d docs", snap.Len())
	}
	for i, q := range queries {
		matchesEqual(t, q, append(snap.TopK(q, 2), snap.Best(q)), want[i])
	}
}

// A snapshot must serve concurrent readers without races (run with -race).
func TestSnapshotConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	texts := make([]string, 20)
	for i := range texts {
		texts[i] = randDoc(rng, 30, 40)
	}
	snap := SealCorpus(nil, texts, 0)
	want := snap.Best(texts[4])
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := snap.Best(texts[4]); got != want {
					panic(fmt.Sprintf("concurrent read diverged: %+v != %+v", got, want))
				}
				snap.TopK(texts[(i*7)%len(texts)], 3)
				snap.BestBatch(2, texts[:5])
			}
		}()
	}
	wg.Wait()
}
