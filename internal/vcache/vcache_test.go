package vcache

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"freehw/internal/corpus"
	"freehw/internal/dedup"
	"freehw/internal/license"
	"freehw/internal/similarity"
	"freehw/internal/vlog"
)

const goodSrc = "module m(input a, output y); assign y = ~a; endmodule"
const badSrc = "module m(input a output y); assign y = ~a;"
const protectedSrc = `// Copyright (c) 2019 Xilinx, Inc. All rights reserved.
// CONFIDENTIAL AND PROPRIETARY.
module p(input a, output y); assign y = a; endmodule`

func TestEntryMatchesDirectComputation(t *testing.T) {
	s := NewStore(dedup.Options{Seed: 1})
	prep := dedup.NewPreparer(s.Options())
	for _, src := range []string{goodSrc, badSrc, protectedSrc} {
		e := s.Entry(src)
		if got, want := e.SyntaxBad(src), vlog.Check(src) != nil; got != want {
			t.Errorf("SyntaxBad = %v, want %v", got, want)
		}
		if got, want := e.HeaderScan(src), license.ScanHeader(vlog.HeaderComment(src)); !reflect.DeepEqual(got, want) {
			t.Errorf("HeaderScan = %+v, want %+v", got, want)
		}
		if got, want := e.BodyHits(src), license.ScanBody(src); !reflect.DeepEqual(got, want) {
			t.Errorf("BodyHits = %v, want %v", got, want)
		}
		if got, want := e.Prepared(src, prep), prep.Prepare(src); !reflect.DeepEqual(got, want) {
			t.Errorf("Prepared diverged for %q", src[:20])
		}
	}
}

func TestStoreDedupsByContent(t *testing.T) {
	s := NewStore(dedup.Options{})
	e1 := s.Entry(goodSrc)
	e2 := s.Entry(goodSrc)
	if e1 != e2 {
		t.Fatal("same content produced distinct entries")
	}
	if e3 := s.Entry(badSrc); e3 == e1 {
		t.Fatal("different content shared an entry")
	}
	st := s.Stats()
	if st.Entries != 2 || st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestStoreConcurrentEntrySingleComputation(t *testing.T) {
	s := NewStore(dedup.Options{})
	var computed sync.Map
	var wg sync.WaitGroup
	results := make([]bool, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := fmt.Sprintf("module m%d; endmodule", g%4)
			e := s.Entry(src)
			if _, loaded := computed.LoadOrStore(e, true); !loaded {
				// First goroutine to see this entry; nothing to assert,
				// SyntaxBad below must agree across all sharers.
			}
			results[g] = e.SyntaxBad(src)
		}(g)
	}
	wg.Wait()
	if s.Len() != 4 {
		t.Fatalf("expected 4 entries, got %d", s.Len())
	}
	for g, bad := range results {
		if bad {
			t.Fatalf("goroutine %d saw a bad verdict for valid source", g)
		}
	}
}

func TestSharedRegistryKeyedByNormalizedOptions(t *testing.T) {
	ResetShared()
	defer ResetShared()
	a := Shared(dedup.Options{})
	b := Shared(dedup.Options{Permutations: 128, Bands: 32, Threshold: 0.85, ShingleK: 5})
	if a != b {
		t.Fatal("equivalent options produced distinct shared stores")
	}
	c := Shared(dedup.Options{Seed: 7})
	if c == a {
		t.Fatal("different seeds shared a store")
	}
	// Threshold only affects index acceptance, never cached artifacts, so
	// a threshold sweep must stay warm on one store.
	d := Shared(dedup.Options{Threshold: 0.90})
	if d != a {
		t.Fatal("threshold-only change produced a distinct shared store")
	}
}

// contentForShard fabricates distinct module sources whose content hashes
// land in one shard, so eviction behavior is deterministic in tests.
func contentForShard(t *testing.T, shard byte, n int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		src := fmt.Sprintf("module m%d; wire w%d; endmodule", i, i)
		if KeyOf(src)[0]&(storeShards-1) == shard {
			out = append(out, src)
		}
		if i > 1<<20 {
			t.Fatal("could not fabricate shard-local contents")
		}
	}
	return out
}

func TestBudgetBoundsResidency(t *testing.T) {
	s := NewStore(dedup.Options{Seed: 1})
	contents := contentForShard(t, 0, 40)
	// Budget for ~8 entries in shard 0 (the budget is split across shards),
	// each with the analyses SyntaxBad materialises.
	s.SetBudget(storeShards * (entryBytes + analysesBytes) * 8)
	for _, c := range contents {
		e := s.Entry(c)
		if e.SyntaxBad(c) {
			t.Fatalf("valid module flagged bad: %q", c)
		}
	}
	st := s.Stats()
	if st.Entries > 10 {
		t.Fatalf("budget not enforced: %d entries resident", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded under a tight budget")
	}
	if st.Bytes > s.Budget() {
		t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, s.Budget())
	}
	// Evicted contents must simply recompute — same verdicts, new entries.
	for _, c := range contents {
		if s.Entry(c).SyntaxBad(c) {
			t.Fatalf("verdict changed after eviction for %q", c)
		}
	}
}

func TestZeroBudgetStoreStillCorrect(t *testing.T) {
	s := NewStore(dedup.Options{Seed: 1})
	s.SetBudget(1) // effectively zero: nothing can stay resident
	for _, src := range []string{goodSrc, badSrc, protectedSrc} {
		e := s.Entry(src)
		if got, want := e.SyntaxBad(src), vlog.Check(src) != nil; got != want {
			t.Errorf("SyntaxBad = %v, want %v", got, want)
		}
	}
	if st := s.Stats(); st.Entries > 1 {
		t.Fatalf("zero budget retained %d entries", st.Entries)
	}
}

// The two-generation clock must keep a repeatedly re-referenced entry
// resident while one-shot probationary entries wash through.
func TestClockKeepsHotEntry(t *testing.T) {
	s := NewStore(dedup.Options{Seed: 1})
	contents := contentForShard(t, 0, 60)
	hot, cold := contents[0], contents[1:]
	s.SetBudget(storeShards * entryBytes * 6)
	hotEntry := s.Entry(hot)
	for _, c := range cold {
		s.Entry(c)
		if s.Entry(hot) != hotEntry {
			t.Fatal("hot entry evicted while being re-referenced every insert")
		}
	}
}

func TestSetBudgetTrimsImmediately(t *testing.T) {
	s := NewStore(dedup.Options{Seed: 1})
	contents := contentForShard(t, 0, 30)
	for _, c := range contents {
		s.Entry(c)
	}
	if got := s.Stats().Entries; got != 30 {
		t.Fatalf("expected 30 resident entries, got %d", got)
	}
	s.SetBudget(storeShards * entryBytes * 4)
	if got := s.Stats().Entries; got > 5 {
		t.Fatalf("SetBudget did not trim: %d entries resident", got)
	}
}

// Cached scan results are handed out as defensive copies: a caller that
// sorts or appends must not corrupt the shared memo (run under -race in CI
// with concurrent mutators).
func TestScanResultsAreDefensiveCopies(t *testing.T) {
	s := NewStore(dedup.Options{Seed: 1})
	e := s.Entry(protectedSrc)

	hits := e.BodyHits(protectedSrc)
	scan := e.HeaderScan(protectedSrc)
	if len(scan.Reasons) == 0 {
		t.Fatal("protected source produced no reasons")
	}
	wantReasons := append([]string(nil), scan.Reasons...)
	wantHits := append([]string(nil), hits...)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := e.HeaderScan(protectedSrc)
			for i := range r.Reasons {
				r.Reasons[i] = "CORRUPTED"
			}
			_ = append(r.Reasons, "extra")
			h := e.BodyHits(protectedSrc)
			sort.Sort(sort.Reverse(sort.StringSlice(h)))
			for i := range h {
				h[i] = "CORRUPTED"
			}
		}()
	}
	wg.Wait()

	if got := e.HeaderScan(protectedSrc).Reasons; !reflect.DeepEqual(got, wantReasons) {
		t.Fatalf("cached Reasons corrupted by a caller: %v", got)
	}
	if got := e.BodyHits(protectedSrc); !reflect.DeepEqual(got, wantHits) {
		t.Fatalf("cached BodyHits corrupted by a caller: %v", got)
	}
}

func TestStoreCompatible(t *testing.T) {
	s := NewStore(dedup.Options{Seed: 1})
	if !s.Compatible(dedup.Options{Seed: 1}) {
		t.Fatal("store incompatible with its own options")
	}
	if !s.Compatible(dedup.Options{Seed: 1, Threshold: 0.95}) {
		t.Fatal("threshold-only change flagged incompatible")
	}
	if s.Compatible(dedup.Options{Seed: 2}) {
		t.Fatal("different seed accepted")
	}
	if s.Compatible(dedup.Options{Seed: 1, ShingleK: 9}) {
		t.Fatal("different shingle size accepted")
	}
}

func TestBestMatchMemoVersioning(t *testing.T) {
	e := NewEntry()
	if _, ok := e.CachedBestMatch(1); ok {
		t.Fatal("empty memo reported a hit")
	}
	m1 := similarity.Match{Name: "a.v", Index: 3, Score: 0.91}
	e.StoreBestMatch(1, m1)
	if got, ok := e.CachedBestMatch(1); !ok || got != m1 {
		t.Fatalf("memo miss after store: %+v %v", got, ok)
	}
	// A new snapshot version invalidates the memo.
	if _, ok := e.CachedBestMatch(2); ok {
		t.Fatal("stale verdict served for a newer snapshot")
	}
	m2 := similarity.Match{Name: "b.v", Index: 0, Score: 0.42}
	e.StoreBestMatch(2, m2)
	if got, ok := e.CachedBestMatch(2); !ok || got != m2 {
		t.Fatalf("memo miss after upgrade: %+v %v", got, ok)
	}
	// A slow batch from the old snapshot must not roll the memo back.
	e.StoreBestMatch(1, m1)
	if got, ok := e.CachedBestMatch(2); !ok || got != m2 {
		t.Fatalf("stale write clobbered newer verdict: %+v %v", got, ok)
	}
	if _, ok := e.CachedBestMatch(1); ok {
		t.Fatal("dropped stale write still visible")
	}
}

// TestStatsWeaklyConsistentUnderLoad hammers Stats and Len while writers
// race Entry lookups, pinning the documented contract: every mid-flight
// read satisfies the weak invariants (non-negative fields, residency
// bounded by what was ever admitted), and once the writers stop the
// counters are exact. Run under -race this also proves the shard walk
// itself is data-race free against concurrent admissions.
func TestStatsWeaklyConsistentUnderLoad(t *testing.T) {
	s := NewStore(dedup.Options{})
	const (
		writers  = 8
		perW     = 200
		distinct = 64
	)
	content := func(i int) string {
		return fmt.Sprintf("module m%d(input a, output y); assign y = a; endmodule", i%distinct)
	}

	stop := make(chan struct{})
	var readErr sync.Map
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				n := s.Len()
				switch {
				case st.Hits < 0 || st.Misses < 0 || st.Entries < 0 || st.Bytes < 0 || st.Evictions < 0:
					readErr.Store(r, fmt.Sprintf("negative field: %+v", st))
				case st.Entries > distinct || n > distinct:
					readErr.Store(r, fmt.Sprintf("residency above everything ever admitted: Entries=%d Len=%d", st.Entries, n))
				case st.Hits+st.Misses > writers*perW:
					readErr.Store(r, fmt.Sprintf("traffic above total Entry calls: %+v", st))
				}
			}
		}(r)
	}

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perW; i++ {
				if e := s.Entry(content(w*perW + i)); e == nil {
					readErr.Store(100+w, "nil entry")
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	readErr.Range(func(k, v any) bool {
		t.Errorf("goroutine %v: %s", k, v)
		return true
	})

	// Quiescent: Stats and Len agree exactly with the final contents.
	st := s.Stats()
	if st.Entries != distinct || s.Len() != distinct {
		t.Fatalf("final residency: Entries=%d Len=%d, want %d", st.Entries, s.Len(), distinct)
	}
	if got := st.Hits + st.Misses; got != writers*perW {
		t.Fatalf("final traffic: hits+misses=%d, want %d", got, writers*perW)
	}
	if st.Misses != distinct {
		t.Fatalf("final misses=%d, want one per distinct content (%d)", st.Misses, distinct)
	}
}

// analysed is what the four curation analyses say about one content.
type analysed struct {
	prep dedup.Prepared
	hdr  license.ScanResult
	body []string
	bad  bool
}

// allFour runs every curation analysis on e.
func allFour(e *Entry, src string, p *dedup.Preparer) analysed {
	return analysed{e.Prepared(src, p), e.HeaderScan(src), e.BodyHits(src), e.SyntaxBad(src)}
}

// An entry the store has evicted, or one that never had a store, is a
// standalone memo: materialising its analyses charges no shard.
func TestEvictedEntryChargesNothing(t *testing.T) {
	s := NewStore(dedup.Options{Seed: 1})
	prep := dedup.NewPreparer(s.Options())
	srcs := distinctModules(256)
	held := make([]*Entry, len(srcs))
	for i, src := range srcs {
		held[i] = s.Entry(src)
	}
	s.SetBudget(1)
	for i, src := range srcs {
		if !reflect.DeepEqual(allFour(held[i], src, prep), allFour(NewEntry(), src, prep)) {
			t.Fatalf("evicted entry %d diverged from a fresh standalone one", i)
		}
	}
	if st := s.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("evicted entries were charged: %+v", st)
	}
}

// distinctModules returns n generated modules, each made unique by a
// trailing comment, the way n completions of a prompt differ.
func distinctModules(n int) []string {
	rng := rand.New(rand.NewSource(23))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s// %d\n", corpus.Generate(rng, "", false).Source, i)
	}
	return out
}

// footprint stores n distinct modules, runs fill on each entry, and returns
// bytes per entry as the heap measures them (HeapAlloc growth after two
// collections) and as the store accounts them.
func footprint(n int, fill func(e *Entry, src string)) (measured, accounted float64) {
	srcs := distinctModules(n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore(dedup.Options{})
	for _, src := range srcs {
		fill(s.Entry(src), src)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := s.Stats()
	runtime.KeepAlive(srcs)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(n), float64(st.Bytes) / float64(n)
}

// TestFootprint pins what a remembered verdict costs as counts: the Entry
// fits the 112-byte size class, an audit-only entry weighs at most 200
// bytes with its map cell and ring share, and the store's accounting is
// within a quarter of the heap's for every shape an entry takes.
func TestFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Entry{}); sz > 112 {
		t.Fatalf("Entry is %d bytes, over the 112-byte size class", sz)
	}
	prep := dedup.NewPreparer(dedup.Options{})
	shapes := []struct {
		name string
		n    int
		max  float64 // measured bytes per entry; 0 = unbounded
		fill func(e *Entry, src string)
	}{
		{"audit-only", 50000, 200, func(e *Entry, _ string) { e.StoreBestMatch(1, similarity.Match{Name: "p.v", Score: 0.5}) }},
		{"syntax-only", 5000, 0, func(e *Entry, src string) { e.SyntaxBad(src) }},
		{"materialised", 5000, 0, func(e *Entry, src string) { allFour(e, src, prep) }},
	}
	for _, sh := range shapes {
		measured, accounted := footprint(sh.n, sh.fill)
		t.Logf("%s: measured %.0f B/entry, accounted %.0f", sh.name, measured, accounted)
		if sh.max > 0 && measured > sh.max {
			t.Errorf("%s: %.0f bytes per entry, want <= %.0f", sh.name, measured, sh.max)
		}
		if r := accounted / measured; r < 0.8 || r > 1.25 {
			t.Errorf("%s: accounted/measured = %.2f, want 0.8-1.25", sh.name, r)
		}
	}
}

// TestFirstUseRace races the lazy analyses pointer: eight goroutines hit
// every method of one stored entry while a ninth evicts it under a tight
// budget. The analyses are computed once (one Prepared backing array), the
// memo round-trips, and the byte accounting neither goes negative nor
// drifts from the resident entries' costs.
func TestFirstUseRace(t *testing.T) {
	s := NewStore(dedup.Options{Seed: 1})
	prep := dedup.NewPreparer(s.Options())
	s.SetBudget(storeShards * entryBytes * 4)
	e := s.Entry(protectedSrc)
	want := similarity.Match{Name: "a.v", Index: 3, Score: 0.91}
	wantAn := allFour(NewEntry(), protectedSrc, prep)
	evictors := contentForShard(t, KeyOf(protectedSrc)[0]&(storeShards-1), 64)

	var wg sync.WaitGroup
	bands := make([]*uint64, 8)
	for g := range bands {
		wg.Add(1)
		go func() {
			defer wg.Done()
			an := allFour(e, protectedSrc, prep)
			bands[g] = &an.prep.Bands[0]
			if !reflect.DeepEqual(an, wantAn) {
				t.Errorf("goroutine %d: analyses diverged from a standalone entry's", g)
			}
			e.StoreBestMatch(7, want)
			if got, ok := e.CachedBestMatch(7); !ok || got != want {
				t.Errorf("goroutine %d: memo did not round-trip: %+v %v", g, got, ok)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, c := range evictors {
			s.Entry(c)
			if st := s.Stats(); st.Bytes < 0 {
				t.Errorf("Bytes went negative: %+v", st)
			}
		}
	}()
	wg.Wait()
	for g, p := range bands {
		if p != bands[0] {
			t.Fatalf("goroutine %d saw its own Prepared: computed more than once", g)
		}
	}
	if s.Entry(protectedSrc) == e {
		t.Fatal("the raced entry was never evicted")
	}
	var resident int64
	for i := range s.shards {
		for _, r := range s.shards[i].m {
			resident += r.cost
		}
	}
	if st := s.Stats(); st.Bytes != resident {
		t.Fatalf("Bytes = %d, resident entries cost %d", st.Bytes, resident)
	}
}
