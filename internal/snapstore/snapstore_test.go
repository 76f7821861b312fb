package snapstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"freehw/internal/failpoint"
	"freehw/internal/similarity"
)

func testSnapshot(t testing.TB, seed int64, n int) (*similarity.Snapshot, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, n)
	texts := make([]string, n)
	for i := range texts {
		names[i] = fmt.Sprintf("doc%d.v", i)
		var sb strings.Builder
		fmt.Fprintf(&sb, "module m%d(input clk, output reg [7:0] q);\n", i)
		for j := 0; j < 4+rng.Intn(8); j++ {
			fmt.Fprintf(&sb, "  wire [7:0] w%d = q ^ 8'h%02X;\n", j, rng.Intn(256))
		}
		sb.WriteString("endmodule\n")
		texts[i] = sb.String()
	}
	return similarity.SealCorpus(names, texts, 0), texts
}

// sameVerdicts asserts two snapshots answer a query set bit-identically.
func sameVerdicts(t *testing.T, got, want *similarity.Snapshot, queries []string) {
	t.Helper()
	g := got.BestBatch(0, queries)
	w := want.BestBatch(0, queries)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("query %d: %+v != %+v", i, g[i], w[i])
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, texts := testSnapshot(t, 1, 30)
	if err := st.Save(7, snap); err != nil {
		t.Fatal(err)
	}
	back, err := st.Load(7)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, back, snap, append(texts[:5:5], "module q(); endmodule"))

	latest, v, skipped, err := st.LoadLatest()
	if err != nil || v != 7 || len(skipped) != 0 {
		t.Fatalf("LoadLatest = v%d skipped %v err %v", v, skipped, err)
	}
	sameVerdicts(t, latest, snap, texts[:5])

	if _, err := st.Load(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing version err = %v", err)
	}
}

func TestLoadLatestEmptyStore(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, v, skipped, err := st.LoadLatest()
	if snap != nil || v != 0 || skipped != nil || err != nil {
		t.Fatalf("empty store LoadLatest = %v v%d %v %v", snap, v, skipped, err)
	}
}

// Corruption table: every kind of file damage — truncation at each region
// boundary, bit flips in header and payload, bad magic — must be detected
// by checksum and skipped in favor of the previous good version. The
// table runs twice: once mangling the version-2 descriptor, once mangling
// the segment file it references.
func TestCorruptionFallsBackToPreviousVersion(t *testing.T) {
	snapA, texts := testSnapshot(t, 2, 20)
	snapB, _ := testSnapshot(t, 3, 25)

	cases := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"empty file", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"unknown format version", func(b []byte) []byte { b[4] = 99; return b }},
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"truncated half", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated one byte", func(b []byte) []byte { return b[:len(b)-1] }},
		{"header bit flip", func(b []byte) []byte { b[9] ^= 0x40; return b }},
		{"section table bit flip", func(b []byte) []byte { b[20] ^= 0x01; return b }},
		{"payload bit flip early", func(b []byte) []byte { b[30] ^= 0x80; return b }},
		{"payload bit flip late", func(b []byte) []byte { b[len(b)-2] ^= 0x04; return b }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xAA) }},
	}
	for _, target := range []string{"descriptor", "segment"} {
		for _, tc := range cases {
			t.Run(target+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				st, err := Open(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Save(1, snapA); err != nil {
					t.Fatal(err)
				}
				if err := st.Save(2, snapB); err != nil {
					t.Fatal(err)
				}
				// Damage version 2 in place, as a torn disk write would.
				path := st.Path(2)
				if target == "segment" {
					path = st.SegPath(snapB.Segment(0).ID())
				}
				good, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, tc.mangle(good), 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := st.Load(2); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
					t.Fatalf("Load(corrupt) err = %v, want ErrCorrupt", err)
				}
				snap, v, skipped, err := st.LoadLatest()
				if err != nil || v != 1 {
					t.Fatalf("LoadLatest = v%d err %v, want fallback to v1", v, err)
				}
				if len(skipped) != 1 || skipped[0] != 2 {
					t.Fatalf("skipped = %v, want [2]", skipped)
				}
				sameVerdicts(t, snap, snapA, texts[:8])
			})
		}
	}
}

// Exhaustive truncation: a segment or descriptor file cut at EVERY
// possible length either loads as the intact file would or fails with
// ErrCorrupt — no panic, no silently wrong index.
func TestTruncationEveryOffset(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := testSnapshot(t, 4, 6)
	if err := st.Save(1, snap); err != nil {
		t.Fatal(err)
	}
	segFull, err := os.ReadFile(st.SegPath(snap.Segment(0).ID()))
	if err != nil {
		t.Fatal(err)
	}
	descFull, err := os.ReadFile(st.Path(1))
	if err != nil {
		t.Fatal(err)
	}
	for name, full := range map[string][]byte{"segment": segFull, "descriptor": descFull} {
		for cut := 0; cut < len(full); cut++ {
			if _, _, _, err := decodeContainer(full[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s truncated at %d/%d: err = %v, want ErrCorrupt", name, cut, len(full), err)
			}
		}
		if _, _, _, err := decodeContainer(full); err != nil {
			t.Fatalf("intact %s: %v", name, err)
		}
	}
	if _, _, err := decodeSegFile(segFull); err != nil {
		t.Fatalf("intact segment decode: %v", err)
	}
}

// A descriptor that claims more entries than its bytes can hold, or names
// one segment twice, is corrupt: a reader would otherwise allocate per
// claimed entry, or read a whole segment file per repeat.
func TestDescriptorCannotAmplifyALoad(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := testSnapshot(t, 20, 4)
	if err := st.Save(1, snap); err != nil {
		t.Fatal(err)
	}
	g := snap.Segment(0)
	for v, desc := range map[uint64][]byte{
		2: binary.LittleEndian.AppendUint32(nil, 1<<20),                              // entries past the payload
		3: encodeDescriptor(similarity.SnapshotOf([]*similarity.Segment{g, g}, nil)), // one segment named twice
	} {
		if err := os.WriteFile(st.Path(v), bytes.Join(encodeContainer(descMagic, v, [][]byte{desc}), nil), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Load(v); !errors.Is(err, ErrCorrupt) {
			t.Errorf("version %d: err = %v, want ErrCorrupt", v, err)
		}
	}
}

// testdata/seg-golden.fhs is a segment file written by the commit before
// postings moved into flat arenas (five documents: a duplicate name, an
// empty document, upper case, a non-ASCII rune; segment id 0x2a). The
// format did not move: the file loads, and what it loads to writes the same
// bytes, CRCs included.
func TestGoldenSegmentFile(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "seg-golden.fhs"))
	if err != nil {
		t.Fatal(err)
	}
	seg, id, err := decodeSegFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0x2a || seg.ID() != 0x2a || seg.Docs() != 5 {
		t.Fatalf("golden segment: file id %#x, segment id %#x, %d docs", id, seg.ID(), seg.Docs())
	}
	if got := bytes.Join(encodeContainer(segMagic, seg.ID(), seg.EncodeSections()), nil); !bytes.Equal(got, golden) {
		t.Fatalf("golden segment re-encodes to %d bytes that differ from the file's %d", len(got), len(golden))
	}
	snap := similarity.SnapshotOf([]*similarity.Segment{seg}, nil)
	if m := snap.Best("module ctr(input clk, input rst, output reg [3:0] q);"); m.Name != "ctr.v" {
		t.Fatalf("golden segment answers %+v, want ctr.v", m)
	}
}

// Directories written before the descriptor became the commit point also
// hold a MANIFEST: "FHSM", the format byte, a u64 version and a CRC32-C
// over those 13 bytes. Whatever it says — a valid but stale version, a
// version with no file, or garbage — the store ignores it: LoadLatest
// scans the descriptors, returns the newest valid version and skips
// nothing.
func TestCorruptManifestScansFiles(t *testing.T) {
	manifest := func(version uint64) []byte {
		m := binary.LittleEndian.AppendUint64(append([]byte("FHSM"), formatVersion), version)
		return binary.LittleEndian.AppendUint32(m, crc32.Checksum(m, castagnoli))
	}
	snapA, _ := testSnapshot(t, 5, 15)
	snapB, texts := testSnapshot(t, 19, 12)
	for _, tc := range []struct {
		name     string
		leftover []byte
	}{
		{"stale", manifest(1)},
		{"missing", manifest(9)},
		{"garbage", []byte("garbage")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Save(1, snapA); err != nil {
				t.Fatal(err)
			}
			if err := st.Save(3, snapB); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), tc.leftover, 0o644); err != nil {
				t.Fatal(err)
			}
			if st, err = Open(dir, 0); err != nil {
				t.Fatal(err)
			}
			got, v, skipped, err := st.LoadLatest()
			if err != nil || v != 3 || len(skipped) != 0 {
				t.Fatalf("LoadLatest = v%d skipped %v err %v, want v3 skipping nothing", v, skipped, err)
			}
			sameVerdicts(t, got, snapB, append(texts[:5:5], "module q(); endmodule"))
		})
	}
}

func TestRetentionSweep(t *testing.T) {
	st, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := testSnapshot(t, 6, 5)
	for v := uint64(1); v <= 5; v++ {
		if err := st.Save(v, snap); err != nil {
			t.Fatal(err)
		}
	}
	versions, err := st.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 || versions[0] != 4 || versions[1] != 5 {
		t.Fatalf("retained versions = %v, want [4 5]", versions)
	}
	if _, v, _, err := st.LoadLatest(); err != nil || v != 5 {
		t.Fatalf("LoadLatest after sweep = v%d err %v", v, err)
	}
}

// assertOnlyLiveFiles fails unless st's directory holds nothing but its
// descriptors and the segments they name: no temp file, no orphan segment,
// no MANIFEST.
func assertOnlyLiveFiles(t *testing.T, st *Store) {
	t.Helper()
	versions, err := st.Versions()
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, v := range versions {
		snap, err := st.Load(v)
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		live[filepath.Base(st.Path(v))] = true
		for i := 0; i < snap.Segments(); i++ {
			live[filepath.Base(st.SegPath(snap.Segment(i).ID()))] = true
		}
	}
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !live[e.Name()] {
			t.Fatalf("store holds %s, which no version names", e.Name())
		}
	}
}

// Kill-and-recover at every registered snapstore failpoint, in error and
// panic mode. The descriptor's rename is the one commit point: a Save that
// crashes before it recovers the previous version, one that crashes after
// it the new one (at-least-once publish). Reopening skips nothing, answers
// byte-identically for that version, leaves only live files, and accepts
// the retried publish.
func TestKillAndRecoverEveryFailpoint(t *testing.T) {
	recovers := map[string]uint64{
		FPBeforeTempWrite: 1,
		FPAfterSegWrite:   1,
		FPAfterSegSync:    1,
		FPAfterSegCommit:  1,
		FPAfterTempWrite:  1,
		FPAfterTempSync:   1,
		FPAfterSave:       2,
		FPBeforeSegGC:     2,
	}
	snapA, texts := testSnapshot(t, 7, 20)
	snapB, textsB := testSnapshot(t, 8, 22)
	snaps := map[uint64]*similarity.Snapshot{1: snapA, 2: snapB}
	queries := append(append([]string(nil), texts[:5]...), textsB[:5]...)

	var points []string
	for _, p := range failpoint.List() {
		if strings.HasPrefix(p, "snapstore/") {
			points = append(points, p)
		}
	}
	if len(points) != len(recovers) {
		t.Fatalf("snapstore registers %v; the table has %d rows", points, len(recovers))
	}

	for _, fp := range points {
		want, ok := recovers[fp]
		if !ok {
			t.Fatalf("failpoint %s has no row in the table", fp)
		}
		t.Run(fp, func(t *testing.T) {
			for _, mode := range []string{"error", "panic"} {
				t.Run(mode, func(t *testing.T) {
					dir := t.TempDir()
					st, err := Open(dir, 0)
					if err != nil {
						t.Fatal(err)
					}
					if err := st.Save(1, snapA); err != nil {
						t.Fatal(err)
					}
					crashSave(t, st, 2, snapB, fp, mode)

					// "Restart": reopen the directory cold and replay.
					st2, err := Open(dir, 0)
					if err != nil {
						t.Fatal(err)
					}
					got, v, skipped, err := st2.LoadLatest()
					if err != nil || v != want || len(skipped) != 0 {
						t.Fatalf("recovery LoadLatest = v%d skipped %v err %v, want v%d skipping nothing", v, skipped, err, want)
					}
					sameVerdicts(t, got, snaps[v], queries)
					assertOnlyLiveFiles(t, st2)

					// The recovered store accepts the retried publish.
					if err := st2.Save(v+1, snapB); err != nil {
						t.Fatal(err)
					}
					if _, v2, _, err := st2.LoadLatest(); err != nil || v2 != v+1 {
						t.Fatalf("post-recovery publish: v%d err %v", v2, err)
					}
				})
			}
		})
	}
}

// crashSave runs one Save with fp armed to fail ("error") or to panic
// ("panic"), and fails the test unless the save stops there.
func crashSave(t *testing.T, st *Store, version uint64, snap *similarity.Snapshot, fp, mode string) {
	t.Helper()
	if mode == "panic" {
		failpoint.EnablePanic(fp)
	} else {
		failpoint.EnableError(fp)
	}
	var err error
	crash := func() (v any) {
		defer func() { v = recover() }()
		err = st.Save(version, snap)
		return nil
	}()
	failpoint.DisableAll()
	if _, panicked := crash.(failpoint.PanicValue); panicked != (mode == "panic") || (mode == "error" && !errors.Is(err, failpoint.ErrInjected)) {
		t.Fatalf("%s-mode crash at %s: Save err %v, panic %v", mode, fp, err, crash)
	}
}

// A hard panic at a failpoint (closest in-process stand-in for SIGKILL)
// must also leave a recoverable store.
func TestPanicCrashRecovers(t *testing.T) {
	defer failpoint.DisableAll()
	dir := t.TempDir()
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	snapA, texts := testSnapshot(t, 9, 10)
	snapB, _ := testSnapshot(t, 10, 12)
	if err := st.Save(1, snapA); err != nil {
		t.Fatal(err)
	}
	failpoint.EnablePanic(FPAfterTempWrite)
	func() {
		defer func() {
			if _, ok := recover().(failpoint.PanicValue); !ok {
				t.Fatal("expected injected panic")
			}
		}()
		st.Save(2, snapB)
	}()
	failpoint.DisableAll()

	st2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, v, _, err := st2.LoadLatest()
	if err != nil || v != 1 {
		t.Fatalf("recovered v%d err %v", v, err)
	}
	sameVerdicts(t, got, snapA, texts[:5])
	// Open cleared the orphaned temp file.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			t.Fatalf("stale temp file survived reopen: %s", e.Name())
		}
	}
}

// Files written by the pre-segmentation store (magic FHSS, the whole
// snapshot in one container) must keep loading byte-identically: the
// sections are exactly one segment's sections, so the legacy file decodes
// as a single-segment version.
func TestLegacyFormatLoads(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, texts := testSnapshot(t, 13, 18)
	legacy := bytes.Join(encodeContainer(legacyMagic, 3, snap.EncodeSections()), nil)
	if err := os.WriteFile(st.Path(3), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := st.Load(3)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, back, snap, append(texts[:6:6], "module nothere(); endmodule"))
	if back.Segments() != 1 {
		t.Fatalf("legacy file decoded to %d segments", back.Segments())
	}

	// A segmented publish on top of the legacy file coexists with it.
	snapB, textsB := testSnapshot(t, 14, 9)
	if err := st.Save(4, snapB); err != nil {
		t.Fatal(err)
	}
	got, v, skipped, err := st.LoadLatest()
	if err != nil || v != 4 || len(skipped) != 0 {
		t.Fatalf("LoadLatest over mixed formats = v%d skipped %v err %v", v, skipped, err)
	}
	sameVerdicts(t, got, snapB, textsB[:4])
	if back, err = st.Load(3); err != nil {
		t.Fatalf("legacy version unreadable after segmented publish: %v", err)
	}
	sameVerdicts(t, back, snap, texts[:4])
}

// The O(delta) property on disk: a version sharing segments with an
// earlier one must not rewrite their files — only absent segments and the
// (small) descriptor are written.
func TestDeltaSaveSharesSegmentFiles(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a.v", "b.v"}
	texts := []string{"module a(input x); endmodule", "module b(output y); endmodule"}
	snap := new(similarity.Snapshot).Append(similarity.BuildSegment(names[:1], texts[:1], 1))
	if err := st.Save(1, snap); err != nil {
		t.Fatal(err)
	}
	base := snap.Segment(0)
	segPath := st.SegPath(base.ID())
	// Pin a sentinel mtime; an unwanted rewrite would reset it.
	old := time.Unix(1_000_000, 0)
	if err := os.Chtimes(segPath, old, old); err != nil {
		t.Fatal(err)
	}

	if err := st.Save(2, snap.Append(similarity.BuildSegment(names[1:], texts[1:], 1))); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if !fi.ModTime().Equal(old) {
		t.Fatal("delta save rewrote a segment file already on disk")
	}
	back, err := st.Load(2)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Segments() != 2 {
		t.Fatalf("loaded delta version: len=%d segs=%d", back.Len(), back.Segments())
	}
}

// Tombstones round-trip through the descriptor: removed docs stay removed
// after a cold load, verdict-identically.
func TestTombstonesPersist(t *testing.T) {
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, texts := testSnapshot(t, 15, 12)
	pruned, _ := snap.Remove([]string{"doc3.v", "doc7.v"})
	if err := st.Save(1, pruned); err != nil {
		t.Fatal(err)
	}
	back, err := st.Load(1)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != pruned.Len() {
		t.Fatalf("loaded %d live docs, want %d", back.Len(), pruned.Len())
	}
	sameVerdicts(t, back, pruned, texts)
	for _, q := range []string{texts[3], texts[7]} {
		if m := back.Best(q); m.Name == "doc3.v" || m.Name == "doc7.v" {
			t.Fatalf("tombstoned doc resurrected after load: %+v", m)
		}
	}
}

// Retention sweep plus segment GC: once no retained descriptor references
// a segment, its file is collected.
func TestSegmentGC(t *testing.T) {
	st, err := Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	snapA, _ := testSnapshot(t, 16, 8)
	snapB, _ := testSnapshot(t, 17, 8)
	if err := st.Save(1, snapA); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(2, snapB); err != nil {
		t.Fatal(err)
	}
	// retain=1: v1 swept, and snapA's segment is now unreferenced.
	if versions, _ := st.Versions(); len(versions) != 1 || versions[0] != 2 {
		t.Fatalf("retained versions = %v, want [2]", versions)
	}
	if _, err := os.Stat(st.SegPath(snapA.Segment(0).ID())); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unreferenced segment survived GC: %v", err)
	}
	if _, err := os.Stat(st.SegPath(snapB.Segment(0).ID())); err != nil {
		t.Fatalf("live segment missing after GC: %v", err)
	}
}

// A segment file committed by a crashed publish whose descriptor never
// landed is an orphan: reopening the store collects it, and the retried
// publish rewrites it.
func TestOpenCollectsOrphanSegments(t *testing.T) {
	defer failpoint.DisableAll()
	dir := t.TempDir()
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := testSnapshot(t, 18, 10)
	failpoint.EnableError(FPAfterSegCommit)
	if err := st.Save(1, snap); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("injected Save err = %v", err)
	}
	failpoint.DisableAll()
	segPath := st.SegPath(snap.Segment(0).ID())
	if _, err := os.Stat(segPath); err != nil {
		t.Fatalf("crashed publish should have committed the segment: %v", err)
	}
	if _, err := Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan segment survived reopen: %v", err)
	}
}

// TestEnvArmedFailpoint proves a real binary can arm failpoints without
// recompiling: CI runs this test with FREEHW_FAILPOINTS=snapstore/
// after-temp-write and a durable save must fail visibly. Skipped unless
// the environment arms that point.
func TestEnvArmedFailpoint(t *testing.T) {
	if !strings.Contains(os.Getenv("FREEHW_FAILPOINTS"), FPAfterTempWrite) {
		t.Skipf("FREEHW_FAILPOINTS does not arm %s", FPAfterTempWrite)
	}
	st, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := testSnapshot(t, 12, 5)
	if err := st.Save(1, snap); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("env-armed Save err = %v, want ErrInjected", err)
	}
	if _, v, _, err := st.LoadLatest(); err != nil || v != 0 {
		t.Fatalf("store after env-armed crash: v%d err %v", v, err)
	}
}
