package snapstore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"freehw/internal/failpoint"
	"freehw/internal/similarity"
)

// encodeContainer is the whole-image reference the streamed writer is held
// to: the header over the finished sections, then the sections — the pieces
// of a store file in order.
func encodeContainer(magic string, id uint64, sections [][]byte) [][]byte {
	lens, crcs := make([]uint32, len(sections)), make([]uint32, len(sections))
	for i, sec := range sections {
		lens[i], crcs[i] = uint32(len(sec)), crc32.Checksum(sec, castagnoli)
	}
	return append([][]byte{containerHeader(magic, id, lens, crcs)}, sections...)
}

// randomSegment builds a tombstone-free segment with one empty document and
// one non-ASCII term among n seeded random ones.
func randomSegment(seed int64, n int) *similarity.Segment {
	rng := rand.New(rand.NewSource(seed))
	b := similarity.NewSegmentBuilder()
	empty, exotic := rng.Intn(n), rng.Intn(n)
	for i := 0; i < n; i++ {
		var sb strings.Builder
		if i != empty {
			fmt.Fprintf(&sb, "module M%d_%d(input clk, output reg [%d:0] q);\n", seed, i, rng.Intn(64))
			for j := rng.Intn(40); j > 0; j-- {
				fmt.Fprintf(&sb, "  assign w%d = q[%d] ^ 8'h%02X;\n", rng.Intn(20000), rng.Intn(8), rng.Intn(256))
			}
			if i == exotic || exotic == empty {
				sb.WriteString("  // größe Ω\n")
			}
			sb.WriteString("endmodule\n")
		}
		b.Add(fmt.Sprintf("s%d/doc%d.v", seed, i), sb.String())
	}
	return b.Seal()
}

// The bytes Save leaves on disk are the container over EncodeSections, for
// the golden segment and for seeded random ones — the larger of them stream
// both dictionaries and the postings in several chunks.
func TestSavedSegmentFileIsTheEncodedImage(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "seg-golden.fhs"))
	if err != nil {
		t.Fatal(err)
	}
	seg, _, err := decodeSegFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	segs := []*similarity.Segment{seg}
	for seed := int64(1); seed <= 20; seed++ {
		segs = append(segs, randomSegment(seed, 1+int(seed)*60))
	}
	for i, g := range segs {
		st, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		snap := similarity.SnapshotOf([]*similarity.Segment{g}, nil)
		if err := st.Save(1, snap); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(st.SegPath(g.ID()))
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Join(encodeContainer(segMagic, g.ID(), g.EncodeSections()), nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("segment %d (%d docs): Save left %d bytes that differ from the %d-byte encoded image", i, g.Docs(), len(got), len(want))
		}
		if i == 0 && !bytes.Equal(got, golden) {
			t.Fatal("the golden segment was saved as other bytes than seg-golden.fhs")
		}
		desc, err := os.ReadFile(st.Path(1))
		if err != nil {
			t.Fatal(err)
		}
		if want := bytes.Join(encodeContainer(descMagic, 1, [][]byte{encodeDescriptor(snap)}), nil); !bytes.Equal(desc, want) {
			t.Fatalf("segment %d: descriptor file differs from its encoded image", i)
		}
	}
}

// A crash after the segment's bytes are written — header already patched —
// leaves nothing but the temp file, and Open removes it.
func TestCrashAfterSegWriteLeavesOnlyTemp(t *testing.T) {
	defer failpoint.DisableAll()
	dir := t.TempDir()
	st, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := randomSegment(3, 40)
	failpoint.EnableError(FPAfterSegWrite)
	if err := st.Save(1, similarity.SnapshotOf([]*similarity.Segment{g}, nil)); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("injected Save err = %v", err)
	}
	failpoint.DisableAll()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(st.SegPath(g.ID()))+tmpSuffix {
		t.Fatalf("after the crash the directory holds %v, want the segment's temp file alone", entries)
	}
	// What the temp holds is already the whole file: the header went in
	// before the failpoint, not after the fsync.
	tmp, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Join(encodeContainer(segMagic, g.ID(), g.EncodeSections()), nil); !bytes.Equal(tmp, want) {
		t.Fatal("the temp file of a crashed segment write is not the finished image")
	}
	if _, err := Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	if entries, _ = os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("Open left %v behind", entries)
	}
}
