package similarity

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"freehw/internal/corpus"
)

// denseRunBodies are the kernel bodies this host can run, by name: the Go
// loops, the AVX2 assembly where the CPU has it, and the AVX-512 VNNI row
// sums (AVX2 for the rest) where it has that too.
func denseRunBodies() []string {
	switch {
	case useVNNI:
		return []string{"vnni", "avx2", "go"}
	case useAVX2:
		return []string{"avx2", "go"}
	}
	return []string{"go"}
}

// withDenseRunBody runs f with the kernels on the named body.
func withDenseRunBody(body string, f func()) {
	defer func(avx2, vnni bool) { useAVX2, useVNNI = avx2, vnni }(useAVX2, useVNNI)
	useAVX2, useVNNI = body != "go", body == "vnni"
	f()
}

// requireDenseRunEqual runs denseRun on every body the host has (in pairs),
// denseRunGo and one acc[i] += q·c loop per row in uint32 arithmetic over
// copies of acc and demands the same sums in every slot, the guard slots
// either side of acc included.
func requireDenseRunEqual(t *testing.T, ctx string, acc []int32, rows []int16, offs []int, qs []uint32) {
	t.Helper()
	const pad = 3
	n := len(acc)
	padded := func() []int32 {
		buf := make([]int32, n+2*pad)
		for i := range buf {
			buf[i] = -7
		}
		copy(buf[pad:], acc)
		return buf
	}
	viaGo, want := padded(), padded()
	denseRunGo(viaGo[pad:pad+n], rows, offs, qs)
	for r, off := range offs {
		for i, c := range rows[off : off+n] {
			want[pad+i] = int32(uint32(want[pad+i]) + qs[r]*uint32(int32(c)))
		}
	}
	for _, body := range denseRunBodies() {
		got := padded()
		withDenseRunBody(body, func() { denseRun(got[pad:pad+n], rows, offs, qs) })
		for i := range want {
			if got[i] != want[i] || viaGo[i] != want[i] {
				t.Fatalf("%s: slot %d: denseRun (%s) %d, denseRunGo %d, row-at-a-time reference %d", ctx, i-pad, body, got[i], viaGo[i], want[i])
			}
		}
	}
}

// useAVX2 and useVNNI are what /proc/cpuinfo says of the host on linux/amd64:
// the CPU detection and the kernel agree on AVX2, and on AVX-512F, BW and
// VNNI together (the kernel lists none of them when the OS does not save
// their registers).
func TestCPUDetectionMatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the CPU is detected on amd64 only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo:", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			has := func(names ...string) bool {
				for _, n := range names {
					if !slices.Contains(strings.Fields(flags), n) {
						return false
					}
				}
				return true
			}
			avx2, vnni := has("avx2"), has("avx2", "avx512f", "avx512bw", "avx512_vnni")
			if avx2 != useAVX2 || vnni != useVNNI {
				t.Fatalf("/proc/cpuinfo lists avx2: %v, avx512f+bw+vnni: %v; CPUID and XGETBV: %v, %v", avx2, vnni, useAVX2, useVNNI)
			}
			t.Logf("avx2 %v, vnni %v", useAVX2, useVNNI)
			return
		}
	}
	t.Fatal("/proc/cpuinfo has no flags line")
}

// Every pair body, the Go loop and a row-at-a-time pass are the same function:
// every tail length around the 32-wide body, 64-wide chunks followed by a
// 32-wide one, 1 024 slots and a corpus-sized row, runs of no rows up to a
// novel query's 38 (odd ones leave a row without a partner), operands that
// start on odd 2-byte boundaries, counts of 0, 1 and 32 767, and query counts
// up to and past 32 767 — which take the Go loop — to the largest a qterm
// can carry, where the sums wrap as int32s do. A row that would end past rows
// is a panic, not a read.
func TestDenseRunMatchesReference(t *testing.T) {
	t.Logf("bodies %v", denseRunBodies())
	rng := rand.New(rand.NewSource(17))
	count := func() int16 {
		switch rng.Intn(6) {
		case 0, 1:
			return 0 // a document outside the list
		case 2:
			return math.MaxInt16
		case 3:
			return int16(rng.Intn(1 << 15))
		}
		return int16(1 + rng.Intn(40))
	}
	qcounts := []uint32{1, 2, 3, 39, math.MaxInt16, math.MaxInt16 + 1, 1 << 20, math.MaxUint32}
	lengths := []int{99, 165, 1024, 8000} // 99 and 165: chunks of 64, one of 32 and a tail
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, nRows := range []int{0, 1, 2, 3, 5, 8, 38, 71} {
			accBuf := make([]int32, n+2)
			rows := make([]int16, nRows*(n+3)+1)
			for i := range rows {
				rows[i] = count()
			}
			offs, qs := make([]int, nRows), make([]uint32, nRows+1)
			for ao := 0; ao < 3; ao++ {
				acc := accBuf[ao : ao+n]
				for i := range acc {
					acc[i] = int32(rng.Intn(1 << 20))
				}
				for r := range offs {
					offs[r] = rng.Intn(len(rows) - n + 1) // any 2-byte boundary; rows may overlap or repeat
					qs[r] = qcounts[rng.Intn(4)]
					if ao == 2 {
						qs[r] = qcounts[rng.Intn(len(qcounts))]
					}
				}
				requireDenseRunEqual(t, fmt.Sprintf("n=%d rows=%d acc+%d", n, nRows, ao), acc, rows, offs, qs)
			}
		}
	}

	rows := make([]int16, 40)
	for _, bad := range []struct {
		name string
		offs []int
		qs   []uint32
	}{
		{"one slot past rows", []int{0, 38}, []uint32{1, 1}},
		{"negative offset", []int{2, -1}, []uint32{1, 1}},
		{"fewer counts than rows", []int{0, 1}, []uint32{1}},
	} {
		acc := make([]int32, 5)
		acc[0], acc[4] = -7, -7
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: denseRun returned", bad.name)
				}
			}()
			denseRun(acc[1:4], rows, bad.offs, bad.qs)
		}()
		if !slices.Equal(acc, []int32{-7, 0, 0, 0, -7}) {
			t.Fatalf("%s: acc is %v after the panic", bad.name, acc)
		}
	}
}

// FuzzDenseRun, on every body the host runs: any counts, any query counts
// (a run mixes counts that fit an int16 with ones that do not), any length,
// alignment, row count and row placement.
func FuzzDenseRun(f *testing.F) {
	f.Add([]byte{}, uint32(1), uint8(0), uint8(0))
	f.Add([]byte{0xff, 0x7f, 1, 0, 2, 0}, uint32(3), uint8(1), uint8(1))
	f.Add(make([]byte, 2*(33*3+5)), uint32(math.MaxInt16), uint8(2), uint8(5))
	f.Add(make([]byte, 2*(64*4+1)), uint32(math.MaxInt16+1), uint8(3), uint8(39))
	slots := make([]byte, 2*(3*163)) // 163 slots: two chunks of 64, one of 32 and a tail of 3
	for i := range slots {
		slots[i] = byte(i*7 + 3)
	}
	f.Add(slots, uint32(math.MaxInt16), uint8(0), uint8(7))
	f.Logf("bodies %v", denseRunBodies())
	f.Fuzz(func(t *testing.T, data []byte, q uint32, off, nRows uint8) {
		vals := make([]int16, len(data)/2)
		for i := range vals {
			vals[i] = int16(binary.LittleEndian.Uint16(data[2*i:]))
		}
		n := len(vals) / 3
		o := min(int(off%4), n)
		acc, rows := make([]int32, n-o), vals[n:]
		for i := range acc {
			acc[i] = int32(vals[o+i]) << 8
		}
		offs, qs := make([]int, nRows%72), make([]uint32, nRows%72)
		for r := range offs {
			offs[r] = (int(off) + 7*r) % (len(rows) - len(acc) + 1)
			qs[r] = q >> (r % 32)
			if r%3 == 2 {
				qs[r] = q % (math.MaxInt16 + 1) // one row in three fits an int16 whatever q is
			}
		}
		requireDenseRunEqual(t, "fuzz", acc, rows, offs, qs)
	})
}

// BenchmarkDenseRun times denseRun, the kernel that adds a query's dense
// rows, on each body the host runs (vnni, avx2, go): runs of 1, 5 and 38
// rows — a lone row, a mean run, every dense list of a novel query on
// bench/'s corpus — into a corpus-sized run of row sums from 8 000-slot rows
// streamed out of bench/'s 270 (4.32 MB, what every query sees). A slot is
// one count multiplied and added.
func BenchmarkDenseRun(b *testing.B) {
	const nDocs, nDense = 8000, 270 // bench/'s corpus: 270 dense lists
	rows := make([]int16, nDense*nDocs)
	for i := range rows {
		rows[i] = int16(i % 7 * (i % 5)) // 0 to 24, a fifth of them 0
	}
	for _, body := range denseRunBodies() {
		for _, nRows := range []int{1, 5, 38} {
			qs := make([]uint32, nRows)
			for r := range qs {
				qs[r] = uint32(r + 1)
			}
			b.Run(fmt.Sprintf("%s/rows=%d/stream", body, nRows), func(b *testing.B) {
				acc := make([]int32, nDocs)
				offs := make([]int, nRows)
				withDenseRunBody(body, func() {
					for i := 0; i < b.N; i++ {
						for r := range offs {
							offs[r] = (i*nRows + r) % nDense * nDocs
						}
						denseRun(acc, rows, offs, qs) // the sums wrap, as they may here
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nRows*nDocs), "ns/slot")
			})
		}
	}
}

// scanRef is scan as one plain loop over the documents, the reference both
// bodies of scanFrom are held to.
func scanRef(sc *searchScratch, acc []float64, acci []int32, inv []float64, k int, dead []uint64) {
	inflate, theta := 1+sc.slack, sc.bar(k)
	for i, f := range acc {
		a := f + float64(float64(acci[i])*inv[i])
		if a*inflate < theta || a == 0 || deadBit(dead, int32(i)) {
			continue
		}
		sc.cand, sc.candA = append(sc.cand, int32(i)), append(sc.candA, a)
		if sc.offer(a, k) {
			theta = sc.bar(k)
		}
	}
}

// The scan's operands come from small grids, so that sums tie, reach the
// bar exactly and are 0: acc from scanAcc, acci from scanAcci and inv from
// scanInv. A document is three bytes, each picking from a grid by its low
// three bits; bit 3 of the third marks the document dead.
var (
	scanAcc  = [8]float64{0, 0.25, 0.5, 1, 1.5, 2, 0x1p-1000, 3}
	scanAcci = [8]int32{0, 0, 1, 2, 3, 7, 1 << 20, math.MaxInt32}
	scanInv  = [8]float64{0, 1, 0.5, 0.25, 1.0 / 3, 0.1, 1e-7, 2}
)

// scanDocs encodes documents for FuzzScan: acc, acci and inv grid indices
// and a dead bit each.
func scanDocs(docs ...[4]int) []byte {
	var out []byte
	for _, d := range docs {
		out = append(out, byte(d[0]), byte(d[1]), byte(d[2]|d[3]<<3))
	}
	return out
}

// FuzzScan holds scan, on every body the host runs, to scanRef: the same
// candidates, approximate dot products and k best, bit for bit. The first
// byte of data is how many of the bytes after it are approximations already
// offered (a bar the gather engine's heap left; at most three, each an
// scanAcc value), then come the documents (scanDocs). slack picks 0 (a sum
// can then equal the bar exactly), the accumulator's (n+32)·epsUlp or 1e-3.
// The seeds cover a sum whose inflation equals the bar, sums of 0, a bar of
// 0 while fewer than k are kept, tails of 1 to 3 past the 4-wide steps, dead
// documents, among them 63 and 64 either side of a bitmap word's edge, and a
// bar rising mid-scan.
func FuzzScan(f *testing.F) {
	seed := func(prior []byte, docs []byte, k, slack uint8) {
		f.Add(append(append([]byte{byte(len(prior))}, prior...), docs...), k, slack)
	}
	seed([]byte{3}, scanDocs([4]int{0, 3, 2, 0}, [4]int{3, 0, 0, 0}, [4]int{2, 0, 0, 0}, [4]int{1, 2, 2, 0}, [4]int{3, 1, 1, 0}), 0, 0) // a = 1 = the bar
	seed(nil, scanDocs([4]int{0, 0, 1, 0}, [4]int{0, 4, 0, 0}, [4]int{0, 0, 0, 0}, [4]int{1, 0, 0, 0}, [4]int{0, 2, 3, 0}), 1, 1)       // a = 0
	seed([]byte{2}, scanDocs([4]int{5, 0, 0, 0}, [4]int{1, 0, 0, 0}, [4]int{2, 0, 0, 0}, [4]int{0, 0, 0, 0}, [4]int{6, 0, 0, 0}), 3, 1) // the bar 0 below k
	seed(nil, scanDocs([4]int{1, 0, 0, 0}), 0, 1)                                                                                       // tails
	seed(nil, scanDocs([4]int{1, 0, 0, 0}, [4]int{4, 0, 0, 0}), 0, 1)
	seed(nil, scanDocs([4]int{1, 0, 0, 0}, [4]int{4, 0, 0, 0}, [4]int{3, 0, 0, 0}), 1, 1)
	var edge []byte // 67 documents, the ones either side of the first word edge dead
	for i := range 67 {
		d := [4]int{1 + i%5, i % 3, 1 + i%2, 0}
		if i == 62 || i == 65 {
			d = [4]int{7, 7, 7, 0} // live, and as high as the dead ones
		}
		if i == 63 || i == 64 {
			d = [4]int{7, 7, 7, 1}
		}
		edge = append(edge, scanDocs(d)...)
	}
	seed(nil, edge, 0, 1)
	seed(nil, edge, 2, 0)
	var rising []byte
	for i := range 13 {
		rising = append(rising, scanDocs([4]int{i % 8, i % 4, 1 + i%3, 0})...)
	}
	seed([]byte{1}, rising, 0, 2)
	seed(nil, rising, 1, 0)
	f.Logf("bodies %v", denseRunBodies())
	f.Fuzz(func(t *testing.T, data []byte, k, slack uint8) {
		if len(data) == 0 {
			return
		}
		nPrior := min(int(data[0]%4), len(data)-1)
		prior, docs := data[1:1+nPrior], data[1+nPrior:]
		n := len(docs) / 3
		acc, acci, inv := make([]float64, n), make([]int32, n), make([]float64, n)
		var dead []uint64
		for i := range n {
			acc[i], acci[i], inv[i] = scanAcc[docs[3*i]&7], scanAcci[docs[3*i+1]&7], scanInv[docs[3*i+2]&7]
			if docs[3*i+2]&8 != 0 {
				if dead == nil {
					dead = make([]uint64, (n+63)/64)
				}
				dead[i>>6] |= 1 << (i & 63)
			}
		}
		kk := 1 + int(k%4)
		fresh := func() *searchScratch {
			sc := &searchScratch{slack: [3]float64{0, float64(n+32) * epsUlp, 1e-3}[slack%3]}
			for _, p := range prior {
				sc.offer(scanAcc[p&7], kk)
			}
			return sc
		}
		want := fresh()
		scanRef(want, acc, acci, inv, kk, dead)
		for _, body := range denseRunBodies() {
			got := fresh()
			withDenseRunBody(body, func() { got.scan(acc, acci, inv, kk, dead) })
			if !slices.Equal(got.cand, want.cand) || !slices.Equal(got.candA, want.candA) || !slices.Equal(got.top, want.top) {
				t.Fatalf("%s: candidates %v %v, top %v; the plain loop's %v %v, top %v", body, got.cand, got.candA, got.top, want.cand, want.candA, want.top)
			}
		}
	})
}

// rescoreRow panics rather than read outside the row, on every body: a
// document past its end or negative.
func TestRescoreRowChecksDocuments(t *testing.T) {
	for _, body := range denseRunBodies() {
		for _, docs := range [][]int32{{0, 1, 2, 40}, {-1, 0, 1, 2}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: docs %v: rescoreRow returned", body, docs)
					}
				}()
				withDenseRunBody(body, func() { rescoreRow(make([]float64, 4), make([]int16, 40), docs, []float64{1, 1, 1, 1}, 1) })
			}()
		}
	}
}

// FuzzRescoreRows holds rescoreRow, on every body the host runs, to the
// scalar loop bit for bit: two rows added in order to 0-67 candidates' sums
// (tails of 1-3 past the 4-wide steps) at documents spread over twice as
// many, with counts from 0 to 32 767, norms as seal makes them (the root of
// an integer sum of squares at least the squared counts) and query counts
// up to 2^31. Candidate j is eight bytes of data: its count in each row
// (low 15 bits of two), 24 bits more of its sum of squares, and its sum so
// far in 256ths (whose low bit also moves its document one slot).
func FuzzRescoreRows(f *testing.F) {
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 67} {
		data := make([]byte, 8*n)
		for j := range data {
			data[j] = byte(j*37 + n)
		}
		f.Add(data, uint32(1), uint32(39))
		if n == 67 {
			for j := 0; j < n; j += 2 {
				copy(data[8*j:], []byte{0xff, 0x7f, 0, 0, 0, 0, 0, 0}) // 32 767 over its own norm, and 0
			}
			f.Add(data, uint32(1<<31), uint32(math.MaxUint32))
		}
	}
	bodies := slices.DeleteFunc(denseRunBodies(), func(b string) bool { return b == "vnni" }) // the row sums' body only
	f.Logf("bodies %v", bodies)
	f.Fuzz(func(t *testing.T, data []byte, q0, q1 uint32) {
		n := min(len(data)/8, 67)
		var cnt [2][]int32
		norm, sums := make([]float64, n), make([]float64, n)
		for j := range n {
			c := data[8*j:]
			cnt[0] = append(cnt[0], int32(binary.LittleEndian.Uint16(c)&0x7fff))
			cnt[1] = append(cnt[1], int32(binary.LittleEndian.Uint16(c[2:])&0x7fff))
			sq := uint64(cnt[0][j]*cnt[0][j]) + uint64(cnt[1][j]*cnt[1][j]) + (uint64(c[4]) | uint64(c[5])<<8 | uint64(c[6])<<16)
			norm[j], sums[j] = math.Sqrt(float64(max(sq, 1))), float64(c[7])/256
		}
		qw := [2]float64{float64(q0 % (1<<31 + 1)), float64(q1 % (1<<31 + 1))}
		want := slices.Clone(sums)
		for r := range cnt {
			for j := range want {
				want[j] += float64(qw[r] * (float64(cnt[r][j]) / norm[j]))
			}
		}
		docs, rows := make([]int32, n), [2][]int16{make([]int16, 2*n), make([]int16, 2*n)}
		for j := range docs {
			docs[j] = int32(2*j + int(data[8*j+7]&1)) // ascending, with gaps
			rows[0][docs[j]], rows[1][docs[j]] = int16(cnt[0][j]), int16(cnt[1][j])
		}
		for _, body := range bodies {
			got := slices.Clone(sums)
			withDenseRunBody(body, func() {
				for r := range rows {
					rescoreRow(got, rows[r], docs, norm, qw[r])
				}
			})
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: candidate %d of %d: %v, the scalar loop %v", body, j, n, got[j], want[j])
				}
			}
		}
	})
}

// posting is one (document, weight) pair of a list.
type posting struct {
	doc int32
	w   float64
}

// postingsOf returns list id of g with the weights it stores: its arena
// range, or its row's non-zero counts over their documents' norms.
func postingsOf(g *Segment, id int32) []posting {
	var ps []posting
	c := g.list(id)
	for j, d := range c.docs {
		ps = append(ps, posting{d, c.ws[j]})
	}
	if c.row >= 0 {
		for d, n := range g.row(c.row) {
			if n != 0 {
				ps = append(ps, posting{int32(d), float64(n) / g.norm[d]})
			}
		}
	}
	return ps
}

// termLists is every non-empty list of g as postingsOf reads it, keyed by its
// term (a bigram by its two unigrams joined with a NUL, termCounts' key):
// what two segments over the same documents must agree on whatever ids their
// dictionaries assign.
func termLists(g *Segment) map[string][]posting {
	terms := make([]string, g.lists())
	for o, id := range g.dict.tid {
		terms[id] = string(g.dict.termBytes(o))
	}
	for id, k1 := range g.dict.pairsByID(g.lists()) {
		if k1 != 0 {
			terms[id] = terms[(k1-1)>>32] + "\x00" + terms[uint32(k1-1)]
		}
	}
	out := map[string][]posting{}
	for id, term := range terms {
		if ps := postingsOf(g, int32(id)); len(ps) > 0 {
			out[term] = ps
		}
	}
	return out
}

// textLists is the lists a rebuild of texts computes with termCounts, keyed
// as termLists keys them: each posting's weight is its count over the norm of
// every count in the document. It shares no code with the builder's log, the
// arenas, a merge or the decoder.
func textLists(texts []string) map[string][]posting {
	lists := map[string][]posting{}
	for d, text := range texts {
		counts, order := termCounts(text)
		norm := normOf(counts)
		for _, term := range order {
			lists[term] = append(lists[term], posting{int32(d), counts[term] / norm})
		}
	}
	return lists
}

// requireListsOf demands that g's lists be, bit for bit, textLists(texts).
func requireListsOf(t *testing.T, ctx string, g *Segment, texts []string) {
	t.Helper()
	requireLists(t, ctx, g, textLists(texts))
}

// requireLists demands that g's lists be, bit for bit, want.
func requireLists(t *testing.T, ctx string, g *Segment, want map[string][]posting) {
	t.Helper()
	got := termLists(g)
	if len(got) != len(want) {
		t.Fatalf("%s: %d non-empty lists, a rebuild has %d", ctx, len(got), len(want))
	}
	same := func(a, b posting) bool { return a.doc == b.doc && math.Float64bits(a.w) == math.Float64bits(b.w) }
	for term, ps := range want {
		if !slices.EqualFunc(got[term], ps, same) {
			t.Fatalf("%s: list %q yields %v, a rebuild's is %v", ctx, term, got[term], ps)
		}
	}
}

// isDense reports whether unigram term's list is one of g's rows.
func isDense(g *Segment, term string) bool {
	id, _ := g.dict.findTerm(term, termHash(term))
	return id >= 0 && slices.Contains(g.dense, id)
}

// requireDenseForm checks g's layout against the postings its lists yield:
// every weight is a count over its document's norm, bit for bit; dense is
// exactly the non-empty lists holding at least 1/rowShare of the documents
// and no count above maxRowCount, each stored only as its row (no arena posting,
// ddf its document frequency), every other list only in the arenas; tmax is
// each list's largest weight, rowMax the rows' largest count, inv each norm's
// reciprocal, dnorm the 2-norm of each document's dense weights (never below
// the norm big.Float computes, never more than a few ulps of slack above it)
// and dnormMax its largest entry.
func requireDenseForm(t *testing.T, ctx string, g *Segment) {
	t.Helper()
	n := g.Docs()
	var wantDense []int32
	var wantDdf []uint32
	arena, rowMax := 0, int32(0)
	sq := make([]*big.Float, n)
	for d := range sq {
		sq[d] = new(big.Float).SetPrec(200)
	}
	if len(g.norm) != n || len(g.inv) != n {
		t.Fatalf("%s: %d norms and %d reciprocals for %d docs", ctx, len(g.norm), len(g.inv), n)
	}
	for d, nm := range g.norm {
		if want := 1 / nm; nm == 0 && g.inv[d] != 0 || nm != 0 && g.inv[d] != want {
			t.Fatalf("%s: doc %d: inv %v for norm %v", ctx, d, g.inv[d], nm)
		}
	}
	for id := 0; id < g.lists(); id++ {
		ps := postingsOf(g, int32(id))
		maxCount := 0.0
		for i, p := range ps {
			if i > 0 && p.doc <= ps[i-1].doc {
				t.Fatalf("%s: list %d yields document %d after %d", ctx, id, p.doc, ps[i-1].doc)
			}
			c := math.Round(p.w * g.norm[p.doc])
			if c < 1 || c/g.norm[p.doc] != p.w {
				t.Fatalf("%s: list %d doc %d: weight %v is no count over the norm %v", ctx, id, p.doc, p.w, g.norm[p.doc])
			}
			maxCount = max(maxCount, c)
		}
		j := 0
		for d, c := range g.postings(int32(id)) { // what a merge reads: the counts
			if j >= len(ps) || d != ps[j].doc || float64(c)/g.norm[d] != ps[j].w {
				t.Fatalf("%s: list %d: posting %d yields count %d at document %d", ctx, id, j, c, d)
			}
			j++
		}
		if j != len(ps) {
			t.Fatalf("%s: list %d yields %d counts for %d postings", ctx, id, j, len(ps))
		}
		df, inArena := len(ps), int(g.off[id+1]-g.off[id])
		if list := g.list(int32(id)); int(list.df) != df {
			t.Fatalf("%s: list %d: df %d, it yields %d postings", ctx, id, list.df, df)
		}
		if df > 0 && g.tmax[id] != slices.MaxFunc(ps, func(a, b posting) int { return cmp.Compare(a.w, b.w) }).w {
			t.Fatalf("%s: list %d: tmax %v is not its largest weight", ctx, id, g.tmax[id])
		}
		if df == 0 || rowShare*df < n || maxCount > maxRowCount {
			if inArena != df {
				t.Fatalf("%s: sparse list %d has %d arena postings of %d", ctx, id, inArena, df)
			}
			arena += df
			continue
		}
		if inArena != 0 {
			t.Fatalf("%s: dense list %d (df %d of %d docs) holds %d arena postings", ctx, id, df, n, inArena)
		}
		wantDense, wantDdf = append(wantDense, int32(id)), append(wantDdf, uint32(df))
		rowMax = max(rowMax, int32(maxCount))
		for _, p := range ps {
			w := new(big.Float).SetPrec(200).SetFloat64(p.w)
			sq[p.doc].Add(sq[p.doc], w.Mul(w, w))
		}
	}
	if !slices.Equal(g.dense, wantDense) || !slices.Equal(g.ddf, wantDdf) || g.rowMax != rowMax {
		t.Fatalf("%s: dense = %v with ddf %v and rowMax %d, lists with %d·df >= %d docs are %v with %v and %d", ctx, g.dense, g.ddf, g.rowMax, rowShare, n, wantDense, wantDdf, rowMax)
	}
	if len(g.docs) != arena || len(g.ws) != arena || len(g.rows) != len(g.dense)*n+31 || len(g.dnorm) != n {
		t.Fatalf("%s: %d/%d arena slots for %d sparse postings, %d row slots and %d dense norms for %d dense lists over %d docs",
			ctx, len(g.docs), len(g.ws), arena, len(g.rows), len(g.dnorm), len(g.dense), n)
	}
	wantMax := 0.0
	for d, s := range sq {
		exact, _ := s.Sqrt(s).Float64() // nearest float64 to the exact norm: at most half an ulp under it
		if g.dnorm[d] < exact || g.dnorm[d] > exact*(1+float64(len(g.dense)+8)*epsUlp) {
			t.Fatalf("%s: dnorm[%d] = %v, the column's norm is %v", ctx, d, g.dnorm[d], exact)
		}
		wantMax = max(wantMax, g.dnorm[d])
	}
	if g.dnormMax != wantMax {
		t.Fatalf("%s: dnormMax = %v, largest dnorm %v", ctx, g.dnormMax, wantMax)
	}
}

// One definition of dense, applied by every way of making a segment — built,
// decoded, split and merged, merged with a tombstone — and one layout: a
// dense list is its row and nothing else, every list yields the postings a
// rebuild of the live documents computes, bit for bit, and both engines score
// as the oracle. Each corpus puts a term exactly on the boundary (df =
// ⌈docs/rowShare⌉), one a document under it, and one at ⌊docs/rowShare⌋,
// which is dense only when docs is a multiple of rowShare; up to rowShare
// documents every list is a row.
func TestSealDerivesDenseForm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 7, 8, 9, 10, 15, 16, 17, 63, 128, 129, 130, 135} {
		names := make([]string, n)
		texts := make([]string, n)
		ceil := (n + rowShare - 1) / rowShare
		for d := range texts {
			names[d] = fmt.Sprintf("d%d", d)
			var sb strings.Builder
			fmt.Fprintf(&sb, "all own%d ", d)
			if d < n/rowShare {
				sb.WriteString("floorshare ")
			}
			if d >= n-(ceil-1) { // the LAST ⌈docs/rowShare⌉-1 documents: rows that start with zeros
				sb.WriteString("under ")
			}
			if d%rowShare == 0 {
				sb.WriteString("ceilshare ")
			}
			texts[d] = sb.String()
		}
		built := BuildSegment(names, texts, 2)
		if n > 0 && (!isDense(built, "all") || !isDense(built, "ceilshare")) {
			t.Fatalf("%d docs: a list in every document or in ceil(docs/%d) of them is not dense (%v)", n, rowShare, built.dense)
		}
		if n >= rowShare && isDense(built, "floorshare") != (n%rowShare == 0) {
			t.Fatalf("%d docs: df = %d dense = %v", n, n/rowShare, isDense(built, "floorshare"))
		}
		if ceil > 1 && isDense(built, "under") {
			t.Fatalf("%d docs: df = %d is dense", n, ceil-1)
		}
		if n <= rowShare && len(built.dense) != built.lists() {
			t.Fatalf("%d docs: %d of %d lists are rows, want all", n, len(built.dense), built.lists())
		}
		check := func(ctx string, g *Segment, texts []string) {
			t.Helper()
			ctx = fmt.Sprintf("%d docs %s", n, ctx)
			requireDenseForm(t, ctx, g)
			requireListsOf(t, ctx, g, texts)
			requireEnginesMatchOracle(t, ctx, g, append(slices.Clip(texts), "all ceilshare under floorshare own1 own2 all"))
		}
		check("built", built, texts)
		dec, err := DecodeSegment(built.EncodeSections())
		if err != nil {
			t.Fatal(err)
		}
		check("decoded", dec, texts)
		if n < 2 {
			continue
		}
		segs := buildSegmented(names, texts, []int{n / 3, n - n/3})
		check("part 0", segs[0], texts[:n/3])
		check("part 1", segs[1], texts[n/3:])
		merged := MergeSegments(segs, [][]uint64{nil, nil})
		check("merged", merged, texts)
		if !slices.Equal(merged.dense, built.dense) || !slices.Equal(merged.rows, built.rows) || !slices.Equal(merged.norm, built.norm) {
			t.Fatalf("%d docs: merged dense form differs from the built segment's", n)
		}
		// Without document 1 the merged segment's threshold is not the sources'.
		dead, live := []uint64{0b10}, slices.Delete(slices.Clone(texts), 1, 2)
		if n/3 < 2 {
			dead, live = nil, texts
		}
		if m := MergeSegments(segs, [][]uint64{dead, nil}); m != nil {
			check("merged without doc 1", m, live)
		}
	}
}

// seal finds a row's largest weight dividing only where count·inv is within
// 6·2^-53 of the largest product so far, since the product can order two
// weights the other way round: "t" weighs 3/fl(√117) in document 0 and
// 17/fl(√3757) in document 1 (equal ratios, rounded apart), and the first
// has the smaller weight but the larger product. tmax is the larger weight.
func TestRowTmaxAcrossProductOrder(t *testing.T) {
	doc := func(c, k int, filler string) string {
		var sb strings.Builder
		sb.WriteString(strings.Repeat("t ", c))
		for i := range k {
			fmt.Fprintf(&sb, "%s%d ", filler, i)
		}
		return sb.String()
	}
	g := BuildSegment([]string{"a", "b"}, []string{doc(3, 52, "a"), doc(17, 1606, "b")}, 1)
	w0, w1 := 3/g.norm[0], 17/g.norm[1]
	if 3*g.inv[0] <= 17*g.inv[1] || w0 >= w1 {
		t.Fatalf("weights %v, %v and products %v, %v are in the same order: the case is not made", w0, w1, 3*g.inv[0], 17*g.inv[1])
	}
	if id, _ := g.dict.findTerm("t", termHash("t")); !isDense(g, "t") || g.tmax[id] != w1 {
		t.Fatalf("tmax of \"t\" is %v, its largest weight %v", g.tmax[id], w1)
	}
	requireDenseForm(t, "built", g)
}

// A list exactly on the threshold whose counts pass 32 767 ("big": 6 of
// 5·rowShare+1 documents, 33 000 in one) is laid out by the decoder as the builder laid it
// out, in the arenas: the decoder's first layout makes it a row, and the
// count sends it back (placeCounts' wide retry). "row", in as many documents
// with small counts, stays a row. Both engines score the decoded segment as
// the oracle.
func TestDecodeWideListAtThreshold(t *testing.T) {
	const n = 5*rowShare + 1
	names, texts := make([]string, n), make([]string, n)
	for d := range texts {
		names[d], texts[d] = fmt.Sprintf("w%d", d), fmt.Sprintf("module w%d ;", d)
		if d%rowShare == 0 {
			texts[d] += " big row"
		}
	}
	texts[0] += strings.Repeat(" big", 33000)
	built := BuildSegment(names, texts, 1)
	if isDense(built, "big") || !isDense(built, "row") {
		t.Fatalf(`dense %v: want "row" a row and "big", on the threshold, in the arenas`, built.dense)
	}
	dec, err := DecodeSegment(built.EncodeSections())
	if err != nil {
		t.Fatal(err)
	}
	requireDenseForm(t, "decoded", dec)
	requireListsOf(t, "decoded", dec, texts)
	if !slices.Equal(dec.dense, built.dense) || !slices.Equal(dec.rows, built.rows) || !slices.Equal(dec.off, built.off) || !slices.Equal(dec.ws, built.ws) {
		t.Fatal("decoded rows or arenas differ from the builder's")
	}
	requireEnginesMatchOracle(t, "decoded", dec, []string{"big row", texts[8], "module w0 ; big big big row", strings.Repeat("big ", 40000)})
}

// The one dense bound the gather engine uses is sound: for every document of
// every segment — homogeneous and diverse, built, decoded, and merged with a
// third of the documents tombstoned, which moves which lists are dense — and
// every query, the float sum of the document's dense contributions in
// canonical order, exactly as evalCanonical adds them, is at most
// ‖q_dense‖·dnorm[d] as searchPrunedBest computes it, before any inflation.
func TestDenseNormBoundsDenseContribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2200))
	for ci := 0; ci < 12; ci++ {
		n := 3 + rng.Intn(300)
		names := make([]string, n)
		texts := make([]string, n)
		for d := range texts {
			names[d] = fmt.Sprintf("p%d", d)
			if ci%2 == 0 {
				texts[d] = "module m ; " + randDoc(rng, 10+rng.Intn(40), 1+rng.Intn(200))
			} else {
				texts[d] = diverseVerilog(rng, rng.Intn(n)) // some documents share every identifier
			}
		}
		parts := buildSegmented(names, texts, splitSizes(n, 1+rng.Intn(3), rng))
		deads := make([][]uint64, len(parts))
		for i, g := range parts {
			deads[i] = make([]uint64, (g.Docs()+63)/64)
			for d := 0; d < g.Docs(); d++ {
				if rng.Intn(3) == 0 {
					deads[i][d>>6] |= 1 << (d & 63)
				}
			}
		}
		built := BuildSegment(names, texts, 1)
		decoded, err := DecodeSegment(built.EncodeSections())
		if err != nil {
			t.Fatal(err)
		}
		segs := append(parts, built, decoded, MergeSegments(parts, nil))
		if m := MergeSegments(parts, deads); m != nil {
			segs = append(segs, m)
		}
		queries := []string{texts[rng.Intn(n)], texts[rng.Intn(n)] + " wire extra ; ; ;", randDoc(rng, 40, 80), diverseVerilog(rng, n+1), strings.Repeat("; ", 500)}
		for si, g := range segs {
			nd := g.Docs()
			for qi, q := range queries {
				pq, sc := parseQuery(q), &searchScratch{}
				g.cursors(pq, sc)
				putQuery(pq)
				sums := make([]float64, nd)
				qd2 := 0.0
				for _, cur := range sc.curs {
					if cur.row >= 0 {
						qd2 += float64(cur.qw * cur.qw)
						for d, c := range g.row(cur.row) {
							if c != 0 {
								sums[d] += float64(cur.qw * (float64(c) / g.norm[d]))
							}
						}
					}
				}
				qdn := math.Sqrt(qd2)
				for d, sum := range sums {
					if bound := qdn * g.dnorm[d]; sum > bound || g.dnorm[d] > g.dnormMax {
						t.Fatalf("corpus %d segment %d query %d doc %d: dense lists contribute %v, bound %v (dnorm %v, max %v)", ci, si, qi, d, sum, bound, g.dnorm[d], g.dnormMax)
					}
				}
			}
		}
	}
}

// oracleSeg is a segment as the reference scorer reads it: its lists by term
// string (textLists of its texts, or termLists of a built segment), its names
// and its tombstones.
type oracleSeg struct {
	names []string
	lists map[string][]posting
	dead  []uint64
}

// oracleSegs is every segment of s as oracleTopK reads it.
func oracleSegs(s *Snapshot) []oracleSeg {
	out := make([]oracleSeg, s.Segments())
	for i := range out {
		g := s.Segment(i)
		out[i] = oracleSeg{g.names, termLists(g), s.SegmentDead(i)}
	}
	return out
}

// oracleQuery is a query as the reference scorer reads it, sharing no code
// with the query parser: its terms are Tokenize's tokens, each one added and
// then the bigram it forms with the token before it, first appearance fixing
// the order, and its norm is taken over every count.
type oracleQuery struct {
	order []string
	cnt   map[string]float64
	norm  float64
}

func newOracleQuery(query string) oracleQuery {
	toks := Tokenize(query)
	q := oracleQuery{cnt: map[string]float64{}}
	add := func(term string) {
		if q.cnt[term] == 0 {
			q.order = append(q.order, term)
		}
		q.cnt[term]++
	}
	for i, tok := range toks {
		add(tok)
		if i > 0 {
			add(toks[i-1] + "\x00" + tok)
		}
	}
	var sq float64
	for _, term := range q.order {
		sq += q.cnt[term] * q.cnt[term]
	}
	q.norm = math.Sqrt(sq)
	return q
}

// topK is the reference scorer. It shares no code with the resolver or either
// engine: each term is looked up in each segment by its string, and each live
// document adds the terms' products in the query's order, one rounded product
// at a time. Documents are numbered by live rank across the segments.
func (q oracleQuery) topK(segs []oracleSeg, k int) []Match {
	out, rank := []Match{}, 0
	for _, sg := range segs {
		acc := make([]float64, len(sg.names))
		for _, term := range q.order {
			for _, p := range sg.lists[term] {
				acc[p.doc] += float64(q.cnt[term] * p.w)
			}
		}
		for d, a := range acc {
			if deadBit(sg.dead, int32(d)) {
				continue
			}
			if a > 0 {
				out = append(out, Match{Name: sg.names[d], Index: rank, Score: a / q.norm})
			}
			rank++
		}
	}
	sort.Slice(out, func(i, j int) bool { return matchWorse(out[j], out[i]) })
	return out[:min(k, len(out))]
}

// oracleTopK is query's top k over segs by the reference scorer.
func oracleTopK(segs []oracleSeg, query string, k int) []Match {
	return newOracleQuery(query).topK(segs, k)
}

// canonicalOracle is oracleTopK over g alone under the tombstones dead, with
// segment-local indices, as searchTopK returns them.
func canonicalOracle(g *Segment, query string, k int, dead []uint64) []Match {
	ms, ss := oracleTopK([]oracleSeg{{g.names, termLists(g), dead}}, query, k), newSnapSeg(g, dead)
	for i := range ms {
		ms[i].Index = int(ss.selectLive(ms[i].Index))
	}
	return ms
}

// requireEnginesMatchOracle checks both engines against canonicalOracle on
// g, with no tombstones, for every query at k = 1 and 3.
func requireEnginesMatchOracle(t *testing.T, ctx string, g *Segment, queries []string) {
	t.Helper()
	for qi, q := range queries {
		for _, k := range []int{1, 3} {
			want := canonicalOracle(g, q, k, nil)
			for _, mode := range []int{searchPruned, searchExhaustive} {
				matchesEqual(t, fmt.Sprintf("%s query %d k=%d mode %d", ctx, qi, k, mode), g.searchTopK(q, k, mode, nil), want)
			}
		}
	}
}

// A batch scores each text as Best does, bit for bit. Homogeneous corpora —
// most queries bail to the accumulator — of 1 023, 1 024, 1 025 and 2 500
// documents: one short of, exactly on and one past a whole number of the
// kernels' 64-document chunks and of the tombstone bitmap's 64-bit words,
// and 2 500 with a tail of 4 past the last chunk; as one segment, as two and
// as eight, with terms that only one segment holds (each document's own
// identifier, one `;`); a fifth of the documents tombstoned, among them the
// one the near-duplicate queries would win with and documents 1 023 and
// 1 024, either side of a bitmap word's edge. Every BestBatch slot equals
// Best of its text, and every Best and TopK equals oracleTopK over the
// snapshot's segments and over a rebuild of the live documents. The queries
// repeat upper-case identifiers after other upper-case tokens, and carry
// non-ASCII runes, invalid bytes and single bytes no dictionary or only one
// segment's holds.
func TestBatchEqualsBest(t *testing.T) {
	EnablePruneStats(true)
	ResetPruneStats()
	defer EnablePruneStats(false)
	same := func(a, b Match) bool {
		return a.Name == b.Name && a.Index == b.Index && math.Float64bits(a.Score) == math.Float64bits(b.Score)
	}
	for _, n := range []int{1023, 1024, 1025, 2500} {
		rng := rand.New(rand.NewSource(int64(1700 + n)))
		names := make([]string, n)
		texts := make([]string, n)
		for d := range texts {
			names[d] = fmt.Sprintf("h%d", d)
			var sb strings.Builder
			for range 1 + rng.Intn(3) {
				for v := 0; v < 30; v++ {
					if rng.Intn(100) < 50+(49*v)/29 { // majority term v: 50 % ... 99 % of documents
						fmt.Fprintf(&sb, "t%d ", v)
					}
					if rng.Intn(100) < 1+v { // minority term v: sparse lists
						fmt.Fprintf(&sb, "s%d ", v)
					}
				}
			}
			fmt.Fprintf(&sb, "own%d", d)
			texts[d] = sb.String()
		}
		const winner = 700
		twin := n - 3 // the tombstoned winner's live copy: never an edge document
		texts[twin] = texts[winner]
		texts[5] += " ; t1" // the one `;`, in the first segment of any split
		dead := make([]bool, n)
		for _, d := range []int{winner, 1023, 1024} {
			if d < n {
				dead[d] = true
			}
		}
		var liveNames, liveTexts []string
		for d := range texts {
			if !dead[d] && d != twin && rng.Intn(5) == 0 {
				dead[d] = true
			}
			if !dead[d] {
				liveNames, liveTexts = append(liveNames, names[d]), append(liveTexts, texts[d])
			}
		}
		bitmap := func(lo, hi int) []uint64 {
			bm := make([]uint64, (hi-lo+63)/64)
			for d := lo; d < hi; d++ {
				if dead[d] {
					bm[(d-lo)>>6] |= 1 << ((d - lo) & 63)
				}
			}
			return bm
		}
		type snapshot struct {
			name string
			*Snapshot
			oracle []oracleSeg
		}
		var snaps []snapshot
		for _, parts := range []int{1, 2, 8} {
			var segs []*Segment
			var deads [][]uint64
			for i := range parts {
				lo, hi := i*n/parts, (i+1)*n/parts
				segs = append(segs, BuildSegment(names[lo:hi], texts[lo:hi], 1))
				deads = append(deads, bitmap(lo, hi))
			}
			snap := SnapshotOf(segs, deads)
			snaps = append(snaps, snapshot{fmt.Sprintf("%d segments", parts), snap, oracleSegs(snap)})
		}

		pool := []string{
			"", "zz_unknown qq_unknown", texts[winner], texts[winner] + " t3 t3 unseen_x", texts[1022] + " s4",
			strings.ToUpper(texts[winner]),
			fmt.Sprintf("T3 S4 T3 OWN%d T3 S4 t3 OWN%d own%d S4", n-1, n-1, n-1),
			"größe t7 ÜBER t7 über \xff t8 \xfe\xff t7 t8",
			"; t1 ; ` t1 # ;t1 OWN5 ` #",
		}
		for len(pool) < 24 {
			var sb strings.Builder
			for range 20 + rng.Intn(60) {
				switch v := rng.Intn(30); rng.Intn(5) {
				case 0:
					fmt.Fprintf(&sb, "s%d ", v)
				case 1:
					fmt.Fprintf(&sb, "novel%d ", rng.Intn(1000))
				default:
					fmt.Fprintf(&sb, "t%d ", v)
				}
			}
			pool = append(pool, sb.String())
		}
		live := oracleSegs(SealCorpus(liveNames, liveTexts, 1))
		wantBest := map[string]Match{}
		for _, q := range pool {
			top := oracleTopK(live, q, 5)
			wantBest[q] = Match{Index: -1}
			if len(top) > 0 {
				wantBest[q] = top[0]
			}
			for _, snap := range snaps {
				ctx := fmt.Sprintf("%d docs, %s, %q", n, snap.name, q)
				matchesEqual(t, ctx+" oracle over the segments", oracleTopK(snap.oracle, q, 5), top)
				if got := snap.Best(q); !same(got, wantBest[q]) {
					t.Fatalf("%s: Best %+v, oracle %+v", ctx, got, wantBest[q])
				}
				matchesEqual(t, ctx+" TopK(5)", snap.TopK(q, 5), top)
			}
		}
		if w := wantBest[strings.ToUpper(texts[winner])]; w != wantBest[texts[winner]] {
			t.Fatalf("%d docs: the upper-cased copy of document %d matches %+v, the copy %+v", n, winner, w, wantBest[texts[winner]])
		}
		if w := wantBest[texts[winner]]; w.Name != names[twin] || w.Score < 0.999 {
			t.Fatalf("%d docs: a copy of tombstoned document %d matches %+v, want its twin %s", n, winner, w, names[twin])
		}

		for _, size := range []int{1, 2, 15, 16, 17, 33} {
			group := make([]string, size)
			for i := range group {
				group[i] = pool[rng.Intn(len(pool))]
			}
			if size > 2 {
				group[size-1] = group[1] // a repeated text, whatever the draw
			}
			for _, snap := range snaps {
				for _, workers := range []int{1, 2, 0} {
					got := snap.BestBatch(workers, group)
					for i, q := range group {
						if !same(got[i], wantBest[q]) || !same(got[i], snap.Best(q)) {
							t.Fatalf("%d docs, %s, group of %d, workers %d: slot %d is %+v, Best %+v, oracle %+v",
								n, snap.name, size, workers, i, got[i], snap.Best(q), wantBest[q])
						}
					}
				}
			}
		}
	}
	if st := ReadPruneStats(); st.Bailouts*2 < st.Queries {
		t.Fatalf("only %d of %d pruned searches ended in the accumulator: the corpora are not homogeneous", st.Bailouts, st.Queries)
	}
}

// benchMutate is bench/'s mutateLine: a protected file with one line
// replaced, which is what publish_mixed's deltas add.
func benchMutate(rng *rand.Rand, text string) string {
	lines := strings.Split(text, "\n")
	lines[rng.Intn(len(lines))] = fmt.Sprintf("  // local edit %d", rng.Int63())
	return strings.Join(lines, "\n")
}

// benchNearDupOf is bench/'s near-duplicate candidate (bench/inputs.go's
// coldStream): a protected file with one line replaced and a trailing tag.
func benchNearDupOf(rng *rand.Rand, texts []string, i int) string {
	return fmt.Sprintf("%s\n// cand 0.%d\n", benchMutate(rng, texts[rng.Intn(len(texts))]), i)
}

// BenchmarkBestBenchCorpus is Snapshot.Best on bench/'s corpus with
// bench/'s two candidate shapes (bench/inputs.go's coldStream): a freshly
// generated module, and a protected file with one line replaced. batch16 is
// BestBatch over the same shapes on one worker, and seq16 the same 16
// candidates a Best each: the reference batch16 is read against, which adds
// the batch's dedup and fan-out to it. Each runs on the 8 000-document
// base alone (segs=1) and with 1 and 7 delta segments after it (segs=2,
// segs=8), each 16 mutated base documents, as publish_mixed publishes them;
// the queries are the same in every shape. ns/posting divides by the postings of the query's
// resolved terms in every segment — what the exhaustive accumulator would
// read. resolve is what every query pays before any scoring, over the novel
// and near-duplicate queries in turn: parseQuery, then cursors on each
// segment; ns/term divides by the query's distinct terms times the segments.
func BenchmarkBestBenchCorpus(b *testing.B) {
	names, texts := protectedDocs(8000)
	segs := []*Segment{BuildSegment(names, texts, 0)}
	drng, rng := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(1))
	for k := range 7 {
		var dn, dt []string
		for j := range 16 {
			dn = append(dn, fmt.Sprintf("delta0_%05d_%02d.v", k, j))
			dt = append(dt, benchMutate(drng, texts[drng.Intn(len(texts))]))
		}
		segs = append(segs, BuildSegment(dn, dt, 1))
	}
	shapes := map[string]func(i int) string{
		"novel": func(i int) string {
			return fmt.Sprintf("%s\n// cand 0.%d\n", corpus.Generate(rng, "", false).Source, i)
		},
		"neardup": func(i int) string { return benchNearDupOf(rng, texts, i) },
	}
	queries := map[string][]string{}
	for _, shape := range []string{"novel", "neardup"} {
		for i := range 256 {
			queries[shape] = append(queries[shape], shapes[shape](i))
		}
	}
	// publish_mixed's request: 16 sibling candidates, one in ten a near-
	// duplicate, through BestBatch on one worker.
	const batch = 16
	batches := make([][]string, 16)
	for bi := range batches {
		for i := 0; i < batch; i++ {
			shape := "novel"
			if rng.Intn(10) == 0 {
				shape = "neardup"
			}
			batches[bi] = append(batches[bi], shapes[shape](bi*batch+i))
		}
	}
	for _, shape := range []string{"novel", "neardup"} {
		for _, n := range []int{1, 2, 8} {
			snap := SnapshotOf(segs[:n], nil)
			qs := queries[shape]
			postings := make([]int, len(qs))
			for i, text := range qs {
				q := parseQuery(text)
				for _, g := range segs[:n] {
					postings[i] += g.cursors(q, &searchScratch{})
				}
				putQuery(q)
			}
			b.Run(fmt.Sprintf("%s/segs=%d", shape, n), func(b *testing.B) {
				read := 0
				for i := 0; i < b.N; i++ {
					if m := snap.Best(qs[i%len(qs)]); m.Index < 0 {
						b.Fatal("no match")
					}
					read += postings[i%len(qs)]
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(read), "ns/posting")
			})
		}
	}
	resolve := append(slices.Clip(queries["novel"]), queries["neardup"]...)
	for _, n := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("resolve/segs=%d", n), func(b *testing.B) {
			sc, terms := &searchScratch{}, 0
			for i := 0; i < b.N; i++ {
				q := parseQuery(resolve[i%len(resolve)])
				for _, g := range segs[:n] {
					g.cursors(q, sc)
				}
				terms += n * len(q.keys)
				putQuery(q)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(terms), "ns/term")
		})
	}
	for _, n := range []int{1, 2, 8} {
		snap := SnapshotOf(segs[:n], nil)
		b.Run(fmt.Sprintf("batch16/segs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ms := snap.BestBatch(1, batches[i%len(batches)]); ms[0].Index < 0 {
					b.Fatal("no match")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "µs/candidate")
		})
	}
	for _, n := range []int{1, 2} { // the reference: the same candidates, one Best each
		snap := SnapshotOf(segs[:n], nil)
		b.Run(fmt.Sprintf("seq16/segs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, text := range batches[i%len(batches)] {
					snap.Best(text)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*batch), "µs/candidate")
		})
	}
}

// The three limits of the int16 rows, at the scoring level, on 40
// documents: six that hold the terms below and 34 fillers, so that a list is
// a row from 5 documents on and each document's own term ("q1"...) is
// sparse. A list whose counts pass 32 767 stays in the arenas though it is
// on the threshold ("x", in 5 documents: 33 000 in one), while one whose
// largest count is 32 767 ("z") is a row and sets rowMax. A query count past
// 32 767 ("y", "w": 40 000 each) sends its row through the Go loop; two such
// rows could pass 2^31-1 between them, so they are two spans; a count whose
// row alone could ("v": 70 000) is a span of its own, scaled as it leaves
// the row sums, and the row after it starts the span the scan reads. Every
// engine, before and after decoding and merging, and over tombstones, scores
// as the oracle.
func TestDenseRowLimits(t *testing.T) {
	rep := func(term string, n int) string { return strings.Repeat(term+" ", n) }
	names := []string{"z.v", "x.v", "d2.v", "d3.v", "d4.v", "d5.v"}
	texts := []string{
		"y w v z " + rep("z", 32766),
		"y w v z x " + rep("x", 32999),
		"y y w v z x",
		"y w w v z x q1",
		"y w v v z x q2",
		"w v z q3 " + rep("y", 3),
	}
	for d := range 34 {
		names, texts = append(names, fmt.Sprintf("f%d.v", d)), append(texts, fmt.Sprintf("filler f%d", d))
	}
	g := BuildSegment(names, texts, 1)
	if isDense(g, "x") || !isDense(g, "z") || !isDense(g, "y") || isDense(g, "q1") || g.rowMax != math.MaxInt16 {
		t.Fatalf(`dense %v, rowMax %d: want "z" and "y" rows, "x" and "q1" in the arenas, rowMax 32767`, g.dense, g.rowMax)
	}
	queries := []string{
		rep("y", 40000) + rep("w", 40000) + rep("v", 70000) + "z x q1",
		rep("v", 70000) + "y",
		"y w v z x q2",
		rep("x", 50000) + "z",
	}
	pq, sc := parseQuery(queries[0]), &searchScratch{}
	g.cursors(pq, sc)
	putQuery(pq)
	sc.planDense(g.rowMax, g.Docs())
	if s := sc.spans; len(s) != 4 || s[0].scale != 1 || s[1].scale != 1 || s[2].scale != 70000 || s[3].scale != 1 || s[2].end != s[1].end+1 {
		t.Fatalf("spans %+v: want y and w apart, v's scaled span, z's", s)
	}
	dec, err := DecodeSegment(g.EncodeSections())
	if err != nil {
		t.Fatal(err)
	}
	segs := buildSegmented(names, texts, []int{2, 4, 34})
	merged := MergeSegments(segs, nil)
	dead := []uint64{0b100100}
	for _, sg := range []struct {
		name string
		g    *Segment
	}{{"built", g}, {"decoded", dec}, {"merged", merged}} {
		requireDenseForm(t, sg.name, sg.g)
		requireListsOf(t, sg.name, sg.g, texts)
		for qi, q := range queries {
			for _, dd := range [][]uint64{nil, dead} {
				for _, k := range []int{1, 3, 6} {
					want := canonicalOracle(g, q, k, dd)
					for _, mode := range []int{searchPruned, searchExhaustive} {
						ctx := fmt.Sprintf("%s query %d k=%d mode %d tombstones=%v", sg.name, qi, k, mode, dd != nil)
						matchesEqual(t, ctx, sg.g.searchTopK(q, k, mode, dd), want)
					}
				}
			}
		}
	}
}

// The scan's premise: a document's approximate dot product — its sparse
// float sum plus its row sum over its norm, spans moved out of the int32
// row sums on the way — and its exact one in canonical order are each within
// (n+3) roundings of the real dot product, n the query's lists, so they are
// within 2n+6 roundings of each other, and one is 0 exactly when the other
// is. The slack accumulate prunes with, (n+32)·epsUlp on either side, covers
// that with room to spare. Homogeneous and diverse corpora, built, merged
// over tombstones and decoded, and the row-limit corpus with query counts
// that split spans and scale them.
func TestApproximationWithinSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(3600))
	rep := func(term string, n int) string { return strings.Repeat(term+" ", n) }
	var segs []*Segment
	var queries []string
	for ci := 0; ci < 6; ci++ {
		n := 50 + rng.Intn(250)
		names, texts := make([]string, n), make([]string, n)
		for d := range texts {
			names[d] = fmt.Sprintf("p%d", d)
			if ci%2 == 0 {
				texts[d] = "module m ; " + randDoc(rng, 10+rng.Intn(40), 1+rng.Intn(200))
			} else {
				texts[d] = diverseVerilog(rng, rng.Intn(n))
			}
		}
		parts := buildSegmented(names, texts, splitSizes(n, 2, rng))
		dead := make([]uint64, (parts[0].Docs()+63)/64)
		dead[0] = 0b1011
		merged := MergeSegments(parts, [][]uint64{dead, nil})
		dec, err := DecodeSegment(merged.EncodeSections())
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, BuildSegment(names, texts, 1), merged, dec)
		queries = append(queries, texts[rng.Intn(n)], randDoc(rng, 40, 300), rep("wire", 40000)+texts[0])
	}
	segs = append(segs, BuildSegment([]string{"z", "y"}, []string{"y w v z " + rep("z", 32766), "y w w v v z q " + rep("y", 9)}, 1))
	queries = append(queries, rep("y", 40000)+rep("w", 40000)+rep("v", 70000)+"z q")
	for si, g := range segs {
		for qi, text := range queries {
			q, sc := parseQuery(text), &searchScratch{}
			g.cursors(q, sc)
			putQuery(q)
			sc.planDense(g.rowMax, g.Docs())
			acc, acci := g.sums(sc)
			bound := float64(2*len(sc.curs)+6) * 0x1p-53
			for d := range acc {
				a := acc[d] + float64(acci[d])*g.inv[d]
				s, _ := g.evalCanonical(sc.curs, nil, int32(d), -1)
				if (a == 0) != (s == 0) || math.Abs(a-s) > bound*max(a, s) {
					t.Fatalf("segment %d query %d doc %d: approximation %v, exact %v: %.3g apart, bound %.3g", si, qi, d, a, s, math.Abs(a-s)/max(a, s), bound)
				}
			}
		}
	}
}

// Rounding can order two documents one way by approximation and the other
// way exactly: the best document's approximate dot product below another's.
// Random small corpora of a dozen terms, all rows, throw such queries up a
// few times in a thousand; the slack must keep the best document through
// the scan, so every such query scores as the oracle does.
func TestScanKeepsInversions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 200
	found := 0
	for trial := 0; trial < 400 && found < 3; trial++ {
		names, texts := make([]string, n), make([]string, n)
		for d := range texts {
			names[d] = fmt.Sprintf("d%d", d)
			var sb strings.Builder
			for range 8 + rng.Intn(16) {
				fmt.Fprintf(&sb, "t%d ", rng.Intn(12))
			}
			texts[d] = sb.String()
		}
		g := BuildSegment(names, texts, 1)
		for range 20 {
			var sb strings.Builder
			for range 5 + rng.Intn(30) {
				fmt.Fprintf(&sb, "t%d ", rng.Intn(12))
			}
			q, sc := parseQuery(sb.String()), &searchScratch{}
			g.cursors(q, sc)
			putQuery(q)
			sc.planDense(g.rowMax, n)
			acc, acci := g.sums(sc)
			best, bestS := 0, -1.0
			for d := range n {
				if s, _ := g.evalCanonical(sc.curs, nil, int32(d), -1); s > bestS {
					best, bestS = d, s
				}
			}
			inverted := false
			for d := range n {
				inverted = inverted || acc[d]+float64(acci[d])*g.inv[d] > acc[best]+float64(acci[best])*g.inv[best]
			}
			if !inverted {
				continue
			}
			found++
			for _, k := range []int{1, 3} {
				matchesEqual(t, fmt.Sprintf("trial %d %q k=%d", trial, sb.String(), k), g.searchTopK(sb.String(), k, searchExhaustive, nil), canonicalOracle(g, sb.String(), k, nil))
			}
		}
	}
	if found == 0 {
		t.Fatal("no query ranks the best document below another by approximation: the corpora no longer exercise the slack")
	}
}
