package snapstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"freehw/internal/similarity"
)

// resealed returns data with every checksum recomputed over the header and
// the section lengths it claims, as far as those fit in it: behind valid
// checksums a mutated identity, count, length or payload reaches the checks
// that a bit flip alone never gets to.
func resealed(data []byte) []byte {
	fixed := containerHeaderLen(0) - 4 // up to the section table; the header's own checksum closes it
	data = bytes.Clone(data)
	if len(data) < fixed {
		return data
	}
	nsec := int(binary.LittleEndian.Uint32(data[fixed-4:]))
	headerLen := fixed + nsec*8
	if nsec > 1024 || len(data) < headerLen+4 {
		return data
	}
	for i, off := 0, headerLen+4; i < nsec; i++ {
		secLen := int(binary.LittleEndian.Uint32(data[fixed+i*8:]))
		if secLen > len(data)-off {
			break
		}
		binary.LittleEndian.PutUint32(data[fixed+i*8+4:], crc32.Checksum(data[off:off+secLen], castagnoli))
		off += secLen
	}
	binary.LittleEndian.PutUint32(data[headerLen:], crc32.Checksum(data[:headerLen], castagnoli))
	return data
}

// FuzzLoadSegmentFile hands the store segment files it did not write. Seeds
// are valid containers (the golden file and, under the same id, a random
// segment and one whose only document is empty); a mutation is loaded as it
// is and, when reseal is set, with its checksums made good again. Either the
// load fails with ErrCorrupt or the segment it returns writes exactly the
// file's bytes back — never a panic, and never more allocation than a small
// multiple of the file (the bound FuzzDecodeSegment holds
// similarity.DecodeSegment to, here over os.ReadFile and the container
// reader too).
//
// Run with -fuzzminimizetime 0, as FuzzDecodeSegment says.
func FuzzLoadSegmentFile(f *testing.F) {
	const id = 0x2a // seg-golden.fhs's
	golden, err := os.ReadFile(filepath.Join("testdata", "seg-golden.fhs"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden, false)
	f.Add(bytes.Join(encodeContainer(segMagic, id, randomSegment(3, 12).EncodeSections()), nil), true)
	f.Add(bytes.Join(encodeContainer(segMagic, id, randomSegment(4, 1).EncodeSections()), nil), true)
	st, err := Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = resealed(data)
		}
		if err := os.WriteFile(st.SegPath(id), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seg, err := st.loadSegment(id)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 8*uint64(len(data))+16*fileDocs(data)+64<<10 {
			t.Fatalf("loading a %d-byte file allocated %d", len(data), got)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("load error %v is not ErrCorrupt", err)
			}
			return
		}
		if got := bytes.Join(encodeContainer(segMagic, seg.ID(), seg.EncodeSections()), nil); !bytes.Equal(got, data) {
			t.Fatalf("accepted %x, which loads to a segment that writes %x", data, got)
		}
	})
}

// FuzzLoadDescriptor hands Store.Load version descriptors it did not write,
// over two segment files it did. The seed is the descriptor Save wrote for
// a version of both segments, one of them tombstoned; a mutation is loaded
// as it is and, when reseal is set, with its checksums made good again.
// Either the load fails with ErrCorrupt or ErrNotFound, or the snapshot it
// returns writes exactly the file's bytes back as a descriptor — never a
// panic, and never more allocation than FuzzLoadSegmentFile allows, segment
// reads included.
//
// Run with -fuzzminimizetime 0, as FuzzDecodeSegment says.
func FuzzLoadDescriptor(f *testing.F) {
	const version = 1
	st, err := Open(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	snap, n := new(similarity.Snapshot).Append(randomSegment(5, 3)).Append(randomSegment(6, 2)).Remove([]string{"s5/doc1.v"})
	if n != 1 {
		f.Fatal("the seed version tombstones nothing")
	}
	if err := st.Save(version, snap); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(st.Path(version))
	if err != nil {
		f.Fatal(err)
	}
	segDocs := uint64(0) // in the segment files, which every load of the version reads
	for i := range snap.Segments() {
		segDocs += uint64(snap.Segment(i).Docs())
	}
	f.Add(seed, false)
	f.Add(seed, true)

	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = resealed(data)
		}
		if err := os.WriteFile(st.Path(version), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := st.Load(version)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 8*uint64(len(data))+16*segDocs+64<<10 {
			t.Fatalf("loading a %d-byte descriptor allocated %d", len(data), got)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
				t.Fatalf("load error %v is neither ErrCorrupt nor ErrNotFound", err)
			}
			return
		}
		if got := bytes.Join(encodeContainer(descMagic, version, [][]byte{encodeDescriptor(snap)}), nil); !bytes.Equal(got, data) {
			t.Fatalf("accepted %x, which loads to a version that writes %x", data, got)
		}
	})
}

// fileDocs is the number of documents a segment file's names section claims,
// or 0 when the file's checksums fail or the section could not hold that
// many: past those checks decoding takes 16 bytes per document (its norm and
// their reciprocal) beyond 8 per byte of the file.
func fileDocs(data []byte) uint64 {
	_, _, secs, err := decodeContainer(data)
	if err != nil || len(secs) == 0 || len(secs[0]) < 4 {
		return 0
	}
	if n := uint64(binary.LittleEndian.Uint32(secs[0])); n <= uint64(len(secs[0])/4) {
		return n
	}
	return 0
}
