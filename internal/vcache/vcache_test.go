package vcache

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"unsafe"

	"freehw/internal/corpus"
	"freehw/internal/dedup"
	"freehw/internal/license"
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

// SyntaxErr is Check's error whether it decides the verdict (a miss) or
// reads one memoized by SyntaxBad or by an earlier SyntaxErr (a hit).
func TestSyntaxErrIsChecksError(t *testing.T) {
	for _, src := range []string{goodSrc, badSrc} {
		want := fmt.Sprint(vlog.Check(src))
		first := NewEntry()
		second := NewEntry()
		second.SyntaxBad(src)
		for i, e := range []*Entry{first, first, second} {
			if got := fmt.Sprint(e.SyntaxErr(src)); got != want {
				t.Errorf("%.20q, call %d: SyntaxErr = %s, want %s", src, i, got, want)
			}
		}
		if got := first.SyntaxBad(src); got != (want != "<nil>") {
			t.Errorf("%.20q: SyntaxBad after SyntaxErr = %v", src, got)
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

// One budget bounds entries and audit records together: a shard filled
// with both stays under its share, keeps some of each (the heavier kind
// gives way), and what it forgot recomputes or misses, never answers
// wrong.
func TestBudgetBoundsResidency(t *testing.T) {
	s := NewStore(dedup.Options{Seed: 1})
	contents := contentForShard(t, 0, 80)
	// Budget for ~8 entries in shard 0 (the budget is split across shards),
	// each with the analyses SyntaxBad materialises.
	s.SetBudget(storeShards * (entryBytes + analysesBytes) * 8)
	for i, c := range contents {
		if i%2 == 1 {
			s.StoreBestMatch(KeyOf(c), 1, i, float64(i)/100)
			continue
		}
		e := s.Entry(c)
		if e.SyntaxBad(c) {
			t.Fatalf("valid module flagged bad: %q", c)
		}
	}
	st := s.Stats()
	sh := &s.shards[0]
	if st.Entries != len(sh.m)+sh.recs.n || len(sh.m) == 0 || sh.recs.n == 0 {
		t.Fatalf("Entries = %d, shard 0 holds %d entries and %d records", st.Entries, len(sh.m), sh.recs.n)
	}
	if max := s.Budget() / storeShards / recordBytes; int64(st.Entries) > max {
		t.Fatalf("budget not enforced: %d entries and records resident, room for %d records", st.Entries, max)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded under a tight budget")
	}
	if st.Bytes > s.Budget() || st.Bytes != int64(sh.recs.n)*recordBytes+entryCosts(sh) {
		t.Fatalf("resident bytes %d: budget %d, shard 0's residents cost %d", st.Bytes, s.Budget(), int64(sh.recs.n)*recordBytes+entryCosts(sh))
	}
	// Evicted contents must simply recompute — same verdicts, new entries —
	// and a forgotten record misses.
	for i, c := range contents {
		if i%2 == 0 {
			if s.Entry(c).SyntaxBad(c) {
				t.Fatalf("verdict changed after eviction for %q", c)
			}
		} else if idx, score, ok := s.CachedBestMatch(KeyOf(c), 1); ok && (idx != i || score != float64(i)/100) {
			t.Fatalf("record %d answers (%d, %v)", i, idx, score)
		}
	}
}

// entryCosts is what sh charges for its resident entries.
func entryCosts(sh *shard) int64 {
	var n int64
	for _, e := range sh.m {
		n += e.cost
	}
	return n
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
	s.StoreBestMatch(KeyOf(goodSrc), 1, 0, 1)
	if _, _, ok := s.CachedBestMatch(KeyOf(goodSrc), 1); ok {
		t.Fatal("zero budget retained an audit record")
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

// The same holds for audit records: a record re-asked after every insert
// survives a sweep of one-shot candidates that is many times the budget.
func TestClockKeepsHotRecord(t *testing.T) {
	s := NewStore(dedup.Options{Seed: 1})
	contents := contentForShard(t, 0, 200)
	hot := KeyOf(contents[0])
	s.SetBudget(storeShards * recordBytes * 6)
	s.StoreBestMatch(hot, 1, 3, 0.9)
	for _, c := range contents[1:] {
		s.StoreBestMatch(KeyOf(c), 1, -1, 0)
		if i, score, ok := s.CachedBestMatch(hot, 1); !ok || i != 3 || score != 0.9 {
			t.Fatal("hot record evicted while being re-asked every insert")
		}
	}
	if st := s.Stats(); st.Evictions < 190 || st.Entries > 6 {
		t.Fatalf("the one-shot records did not wash through: %+v", st)
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

// verdict is what CachedBestMatch answers.
type verdict struct {
	index int
	score float64
	ok    bool
}

func cached(s *Store, k Key, ver uint64) verdict {
	i, score, ok := s.CachedBestMatch(k, ver)
	return verdict{i, score, ok}
}

func TestBestMatchMemoVersioning(t *testing.T) {
	s := NewStore(dedup.Options{})
	k := KeyOf(goodSrc)
	if cached(s, k, 1).ok {
		t.Fatal("empty memo reported a hit")
	}
	s.StoreBestMatch(k, 1, 3, 0.91)
	v1 := verdict{3, 0.91, true}
	if got := cached(s, k, 1); got != v1 {
		t.Fatalf("memo miss after store: %+v", got)
	}
	// A new snapshot version invalidates the memo.
	if cached(s, k, 2).ok {
		t.Fatal("stale verdict served for a newer snapshot")
	}
	s.StoreBestMatch(k, 2, -1, 0)
	v2 := verdict{-1, 0, true}
	if got := cached(s, k, 2); got != v2 {
		t.Fatalf("memo miss after upgrade: %+v", got)
	}
	// A slow batch from the old snapshot must not roll the memo back.
	s.StoreBestMatch(k, 1, 3, 0.91)
	if got := cached(s, k, 2); got != v2 {
		t.Fatalf("stale write clobbered newer verdict: %+v", got)
	}
	if cached(s, k, 1).ok {
		t.Fatal("dropped stale write still visible")
	}
	// Another content is another record.
	if cached(s, KeyOf(badSrc), 2).ok {
		t.Fatal("a record answered for another content")
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes != recordBytes || st.Hits != 3 || st.Misses != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRecordTableAgainstMap drives one shard's record table through
// inserts and overwrites, unbounded and then under a budget that evicts,
// and checks every step against a map of what was stored: unbounded, every
// stored key answers; bounded, a resident record answers what was last
// stored; and at the end every record sits where a lookup of its key finds
// it (no key twice, none past a hole) and the table holds exactly as many
// records as Stats counts and the budget allows.
func TestRecordTableAgainstMap(t *testing.T) {
	s := NewStore(dedup.Options{})
	contents := contentForShard(t, 5, 400)
	keys := make([]Key, len(contents))
	for i, c := range contents {
		keys[i] = KeyOf(c)
	}
	want := map[Key]verdict{}
	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 20000; step++ {
		if step == 5000 {
			s.SetBudget(storeShards * recordBytes * 150)
		}
		k := keys[rng.Intn(len(keys))]
		if rng.Intn(2) == 0 {
			v := verdict{rng.Intn(1000) - 1, rng.Float64(), true}
			s.StoreBestMatch(k, 1, v.index, v.score)
			want[k] = v
		} else if got := cached(s, k, 1); (got.ok || step < 5000) && got != want[k] {
			t.Fatalf("step %d: record answers %+v, last stored %+v", step, got, want[k])
		}
	}
	sh := &s.shards[5]
	n := 0
	for i, r := range sh.recs.slots {
		if r.clock == 0 {
			continue
		}
		n++
		if at := sh.recs.find(r.key); at != i {
			t.Fatalf("the record in slot %d is found at %d", i, at)
		}
		if got := cached(s, r.key, 1); got != want[r.key] {
			t.Fatalf("resident record answers %+v, last stored %+v", got, want[r.key])
		}
	}
	if st := s.Stats(); n != sh.recs.n || n != st.Entries || n > 150 || st.Evictions == 0 {
		t.Fatalf("%d records resident, table counts %d: %+v", n, sh.recs.n, st)
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

// TestMixedTrafficUnderEviction is the same contract with audit records
// beside entries and a budget that evicts all the time: writers race
// Entry, the syntax analysis, CachedBestMatch and StoreBestMatch over
// three snapshot versions while readers hammer Stats. Every hit answers
// what was stored for its content at its version, every mid-flight read
// satisfies the weak invariants (resident bytes within the budget too),
// and once the writers stop the counters are exact.
func TestMixedTrafficUnderEviction(t *testing.T) {
	s := NewStore(dedup.Options{})
	const (
		writers  = 8
		perW     = 400
		distinct = 96
		lookups  = 2 * writers * perW // one Entry and one CachedBestMatch an op
	)
	srcs := distinctModules(distinct)
	keys := make([]Key, distinct)
	for i, src := range srcs {
		keys[i] = KeyOf(src)
	}
	s.SetBudget(storeShards * 500)
	index := func(j int, ver uint64) int { return 10*j + int(ver) - 20 }

	stop := make(chan struct{})
	var errs sync.Map
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			var evictions int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				switch {
				case st.Hits < 0 || st.Misses < 0 || st.Entries < 0 || st.Bytes < 0:
					errs.Store(r, fmt.Sprintf("negative field: %+v", st))
				case st.Entries > 2*distinct || st.Bytes > s.Budget():
					errs.Store(r, fmt.Sprintf("residency above what was admitted or budgeted: %+v", st))
				case st.Hits+st.Misses > lookups:
					errs.Store(r, fmt.Sprintf("traffic above total lookups: %+v", st))
				case st.Evictions < evictions:
					errs.Store(r, fmt.Sprintf("evictions went back from %d: %+v", evictions, st))
				}
				evictions = st.Evictions
			}
		}(r)
	}

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perW; i++ {
				j := rng.Intn(distinct)
				if e := s.Entry(srcs[j]); i%4 == 0 && e.SyntaxBad(srcs[j]) {
					errs.Store(100+w, "generated module flagged bad")
				}
				ver := uint64(1 + rng.Intn(3))
				if idx, score, ok := s.CachedBestMatch(keys[j], ver); !ok {
					s.StoreBestMatch(keys[j], ver, index(j, ver), float64(ver)/10)
				} else if idx != index(j, ver) || score != float64(ver)/10 {
					errs.Store(100+w, fmt.Sprintf("content %d at version %d answered (%d, %v)", j, ver, idx, score))
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	errs.Range(func(k, v any) bool {
		t.Errorf("goroutine %v: %s", k, v)
		return true
	})

	st := s.Stats()
	resident, bytes := 0, int64(0)
	for i := range s.shards {
		sh := &s.shards[i]
		resident += len(sh.m) + sh.recs.n
		bytes += entryCosts(sh) + int64(sh.recs.n)*recordBytes
	}
	if st.Entries != resident || st.Bytes != bytes || st.Bytes > s.Budget() {
		t.Fatalf("final residency %+v: %d resident costing %d, budget %d", st, resident, bytes, s.Budget())
	}
	if st.Hits+st.Misses != lookups || st.Evictions == 0 {
		t.Fatalf("final traffic %+v, want %d lookups and some evictions", st, lookups)
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

// recordFootprint stores n audit records and returns bytes per record as
// the heap measures them (HeapAlloc growth after two collections) and as
// the store accounts them. The keys are hashes of small strings, made and
// dropped one at a time.
func recordFootprint(n int) (measured, accounted float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewStore(dedup.Options{})
	for i := 0; i < n; i++ {
		s.StoreBestMatch(KeyOf(strconv.Itoa(i)), 1, i%5000-1, 0.5)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := s.Stats()
	runtime.KeepAlive(s)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(n), float64(st.Bytes) / float64(n)
}

// TestFootprint pins what a remembered verdict costs as counts: an audit
// record weighs at most 128 bytes with its share of the table at 50 000
// records and at 270 000 (just past where a 64-shard Go map doubles), the
// Entry fits the 64-byte size class, and the store's accounting is within
// a quarter of the heap's for records and for every shape an entry takes.
func TestFootprint(t *testing.T) {
	if sz := unsafe.Sizeof(Entry{}); sz > 64 {
		t.Fatalf("Entry is %d bytes, over the 64-byte size class", sz)
	}
	for _, n := range []int{50000, 270000} {
		measured, accounted := recordFootprint(n)
		t.Logf("%d audit records: measured %.0f B/record, accounted %.0f", n, measured, accounted)
		if measured > 128 {
			t.Errorf("%d audit records: %.0f bytes per record, want <= 128", n, measured)
		}
		if r := accounted / measured; r < 0.8 || r > 1.25 {
			t.Errorf("%d audit records: accounted/measured = %.2f, want 0.8-1.25", n, r)
		}
	}
	prep := dedup.NewPreparer(dedup.Options{})
	shapes := []struct {
		name string
		n    int
		max  float64 // measured bytes per entry; 0 = unbounded
		fill func(e *Entry, src string)
	}{
		{"bare", 50000, 160, func(*Entry, string) {}},
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
// budget. The analyses are computed once (one Prepared backing array), and
// the byte accounting neither goes negative nor drifts from the resident
// entries' costs.
func TestFirstUseRace(t *testing.T) {
	s := NewStore(dedup.Options{Seed: 1})
	prep := dedup.NewPreparer(s.Options())
	s.SetBudget(storeShards * entryBytes * 4)
	e := s.Entry(protectedSrc)
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
		resident += entryCosts(&s.shards[i])
	}
	if st := s.Stats(); st.Bytes != resident {
		t.Fatalf("Bytes = %d, resident entries cost %d", st.Bytes, resident)
	}
}
