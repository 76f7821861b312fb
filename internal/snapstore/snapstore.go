// Package snapstore persists similarity snapshots crash-safely. It is the
// durability layer under the audit service: every corpus publish is saved
// here before it starts serving, and on boot the service replays the last
// good version for an instant warm restart instead of an empty index.
//
// On-disk layout (one directory per store):
//
//	seg-<segment id, 16 hex>.fhs   one immutable segment, shared by versions
//	snap-<version, 16 hex>.fhs     one descriptor per published version
//
// Segments are written once and referenced by every later version that
// still contains them, which is what makes an incremental publish O(delta)
// on disk: saving a version that adds one segment writes that segment file
// plus a small descriptor, never the whole corpus. A descriptor lists the
// live segment ids in order together with each segment's tombstone bitmap.
//
// Every file is a format-versioned, length-prefixed, per-section
// checksummed container:
//
//	magic | format byte | u64 id/version | u32 section count
//	per section: u32 length | u32 CRC32-C
//	u32 CRC32-C over the header above
//	section payloads, concatenated
//
// Segment files (magic "FHSG") carry similarity's four structural
// sections; descriptors (magic "FHSV") carry one section — the segment
// list. Files written before the index went segmented (magic "FHSS")
// carry a whole snapshot's sections and still load byte-identically as a
// single-segment version.
//
// Every write is crash-safe: full contents to a temp file in the same
// directory, fsync, atomic rename over the final name, fsync the
// directory. Segment files become durable before the descriptor that
// references them, so the descriptor's rename is the one commit point: a
// version exists exactly when its descriptor does. Readers trust nothing:
// a truncated, torn, or bit-flipped file fails its checksums and
// LoadLatest falls back to the newest older version that verifies — a
// crashed writer can lose its in-flight publish but can never corrupt what
// was already served. Segment files no descriptor references (a crash
// before the descriptor rename, or a retention sweep) are
// garbage-collected. A MANIFEST file left by older writers is ignored.
//
// The write path is instrumented with failpoints (see internal/failpoint)
// at each crash-relevant boundary; the recovery test suites crash a
// publish at every one of them and pin which version each crash recovers.
package snapstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"freehw/internal/failpoint"
	"freehw/internal/similarity"
)

// Failpoint names of the write path, in execution order. The recovery
// suites iterate failpoint.List() and crash at each; one added here fails
// them until their tables say which version a crash there recovers.
var (
	FPBeforeTempWrite = failpoint.Register("snapstore/before-temp-write")
	FPAfterSegWrite   = failpoint.Register("snapstore/after-seg-write")
	FPAfterSegSync    = failpoint.Register("snapstore/after-seg-sync")
	FPAfterSegCommit  = failpoint.Register("snapstore/after-seg-commit")
	FPAfterTempWrite  = failpoint.Register("snapstore/after-temp-write")
	FPAfterTempSync   = failpoint.Register("snapstore/after-temp-sync")
	FPAfterSave       = failpoint.Register("snapstore/after-save")
	FPBeforeSegGC     = failpoint.Register("snapstore/before-seg-gc")
)

const (
	legacyMagic   = "FHSS" // pre-segmentation whole-snapshot file
	segMagic      = "FHSG" // one immutable segment
	descMagic     = "FHSV" // versioned descriptor over segments
	formatVersion = 1
	snapPrefix    = "snap-"
	segPrefix     = "seg-"
	snapSuffix    = ".fhs"
	tmpSuffix     = ".tmp"
)

// ErrCorrupt reports a snapshot or segment file that failed validation:
// bad magic, unknown format version, checksum mismatch, or truncation.
var ErrCorrupt = errors.New("snapstore: corrupt file")

// ErrNotFound reports a requested version with no file on disk.
var ErrNotFound = errors.New("snapstore: version not found")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store is a directory of segment files and versioned descriptors. Save
// calls must be serialized by the caller (the serving layer already
// serializes publishes); loads are safe at any time.
type Store struct {
	dir     string
	retain  int
	nextSeg uint64 // next segment id to assign; always past every id on disk
}

// Open creates or reopens a store directory. retain bounds how many
// snapshot versions Save keeps on disk (<= 0 keeps every version).
// Leftover temp files from a crashed writer are removed, as are segment
// files no descriptor references — a crash between segment commit and
// descriptor rename leaves exactly such an orphan, and the retried
// publish rewrites it.
func Open(dir string, retain int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			os.Remove(filepath.Join(dir, e.Name())) //freehw:nolint failsafe -- startup sweep of orphaned temp files; recovery never reads them, so a kill here loses nothing
		}
	}
	st := &Store{dir: dir, retain: retain, nextSeg: 1}
	segs, err := st.fileIDs(segPrefix)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		st.nextSeg = segs[len(segs)-1] + 1
	}
	st.gcSegments(segs)
	return st, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Path returns the on-disk path of one version's descriptor file — for
// operators and tests inspecting durable state; the file may not exist.
func (st *Store) Path(version uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s%016x%s", snapPrefix, version, snapSuffix))
}

// SegPath returns the on-disk path of one segment file.
func (st *Store) SegPath(id uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s%016x%s", segPrefix, id, snapSuffix))
}

// containerHeader builds the header shared by every store file — magic,
// format version, a u64 identity, then each section's length and CRC32-C —
// closed by its own checksum. The sections follow it back to back.
func containerHeader(magic string, id uint64, lens, crcs []uint32) []byte {
	header := make([]byte, 0, containerHeaderLen(len(lens)))
	header = append(header, magic...)
	header = append(header, formatVersion)
	header = binary.LittleEndian.AppendUint64(header, id)
	header = binary.LittleEndian.AppendUint32(header, uint32(len(lens)))
	for i := range lens {
		header = binary.LittleEndian.AppendUint32(header, lens[i])
		header = binary.LittleEndian.AppendUint32(header, crcs[i])
	}
	return binary.LittleEndian.AppendUint32(header, crc32.Checksum(header, castagnoli))
}

func containerHeaderLen(nsec int) int { return 4 + 1 + 8 + 4 + nsec*8 + 4 }

// writeContainer writes one container file to f without ever holding its
// image: a placeholder where the header goes, then the sections as body
// streams them (in order, a chunk at a time: similarity.WriteSections) through
// running lengths and checksums, then the header, patched in place.
func writeContainer(f *os.File, magic string, id uint64, nsec int, body func(emit func(sec int, chunk []byte) error) error) error {
	if _, err := f.Write(make([]byte, containerHeaderLen(nsec))); err != nil {
		return err
	}
	lens, crcs := make([]uint32, nsec), make([]uint32, nsec)
	err := body(func(sec int, chunk []byte) error {
		lens[sec] += uint32(len(chunk))
		crcs[sec] = crc32.Update(crcs[sec], castagnoli, chunk)
		_, err := f.Write(chunk)
		return err
	})
	if err != nil {
		return err
	}
	_, err = f.WriteAt(containerHeader(magic, id, lens, crcs), 0)
	return err
}

// decodeContainer validates every checksum and returns the magic, the
// identity word, and the section payloads.
func decodeContainer(data []byte) (magic string, id uint64, sections [][]byte, err error) {
	fixed := 4 + 1 + 8 + 4
	if len(data) < fixed+4 {
		return "", 0, nil, ErrCorrupt
	}
	magic = string(data[:4])
	switch magic {
	case legacyMagic, segMagic, descMagic:
	default:
		return "", 0, nil, ErrCorrupt
	}
	if data[4] != formatVersion {
		return "", 0, nil, fmt.Errorf("%w: unknown format version %d", ErrCorrupt, data[4])
	}
	id = binary.LittleEndian.Uint64(data[5:])
	nsec := int(binary.LittleEndian.Uint32(data[13:]))
	if nsec < 0 || nsec > 1024 {
		return "", 0, nil, ErrCorrupt
	}
	headerLen := fixed + nsec*8
	if len(data) < headerLen+4 {
		return "", 0, nil, ErrCorrupt
	}
	wantHdrCRC := binary.LittleEndian.Uint32(data[headerLen:])
	if crc32.Checksum(data[:headerLen], castagnoli) != wantHdrCRC {
		return "", 0, nil, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	sections = make([][]byte, nsec)
	off := headerLen + 4
	for i := 0; i < nsec; i++ {
		secLen := int(binary.LittleEndian.Uint32(data[fixed+i*8:]))
		secCRC := binary.LittleEndian.Uint32(data[fixed+i*8+4:])
		if secLen < 0 || off+secLen > len(data) {
			return "", 0, nil, fmt.Errorf("%w: section %d truncated", ErrCorrupt, i)
		}
		sec := data[off : off+secLen]
		if crc32.Checksum(sec, castagnoli) != secCRC {
			return "", 0, nil, fmt.Errorf("%w: section %d checksum mismatch", ErrCorrupt, i)
		}
		sections[i] = sec
		off += secLen
	}
	if off != len(data) {
		return "", 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-off)
	}
	return magic, id, sections, nil
}

// decodeSegFile validates and reconstructs one segment.
func decodeSegFile(data []byte) (*similarity.Segment, uint64, error) {
	magic, id, sections, err := decodeContainer(data)
	if err != nil {
		return nil, 0, err
	}
	if magic != segMagic {
		return nil, 0, fmt.Errorf("%w: not a segment file", ErrCorrupt)
	}
	seg, err := similarity.DecodeSegment(sections)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if id != 0 {
		seg.SetID(id)
	}
	return seg, id, nil
}

// encodeDescriptor builds one version's descriptor payload: the ordered
// segment list with per-segment doc counts and tombstone bitmaps.
func encodeDescriptor(snap *similarity.Snapshot) []byte {
	desc := binary.LittleEndian.AppendUint32(nil, uint32(snap.Segments()))
	for i := 0; i < snap.Segments(); i++ {
		g := snap.Segment(i)
		desc = binary.LittleEndian.AppendUint64(desc, g.ID())
		desc = binary.LittleEndian.AppendUint32(desc, uint32(g.Docs()))
		dead := snap.SegmentDead(i)
		desc = binary.LittleEndian.AppendUint32(desc, uint32(len(dead)))
		for _, w := range dead {
			desc = binary.LittleEndian.AppendUint64(desc, w)
		}
	}
	return desc
}

// segRef is one descriptor entry: a segment id plus the tombstones the
// version applies to it.
type segRef struct {
	id   uint64
	docs int
	dead []uint64
}

// decodeDescriptor parses a descriptor payload into segment references.
// An entry takes 16 bytes at least, which bounds the count before anything
// is allocated.
func decodeDescriptor(desc []byte) ([]segRef, error) {
	off := 0
	u32 := func() uint32 {
		v := binary.LittleEndian.Uint32(desc[off:])
		off += 4
		return v
	}
	if len(desc) < 4 {
		return nil, ErrCorrupt
	}
	n := int(u32())
	if n < 0 || n > (len(desc)-4)/16 {
		return nil, fmt.Errorf("%w: descriptor claims %d entries in %d bytes", ErrCorrupt, n, len(desc))
	}
	refs := make([]segRef, 0, n)
	for i := 0; i < n; i++ {
		if off+16 > len(desc) {
			return nil, fmt.Errorf("%w: descriptor truncated", ErrCorrupt)
		}
		id := binary.LittleEndian.Uint64(desc[off:])
		off += 8
		docs := int(u32())
		words := int(u32())
		if id == 0 || docs < 0 || words < 0 || off+words*8 > len(desc) {
			return nil, fmt.Errorf("%w: descriptor entry %d invalid", ErrCorrupt, i)
		}
		if words != 0 && words != (docs+63)/64 {
			return nil, fmt.Errorf("%w: descriptor entry %d bitmap size", ErrCorrupt, i)
		}
		var dead []uint64
		if words > 0 {
			dead = make([]uint64, words)
			for w := range dead {
				dead[w] = binary.LittleEndian.Uint64(desc[off:])
				off += 8
			}
		}
		refs = append(refs, segRef{id: id, docs: docs, dead: dead})
	}
	if off != len(desc) {
		return nil, fmt.Errorf("%w: %d trailing descriptor bytes", ErrCorrupt, len(desc)-off)
	}
	return refs, nil
}

// loadSegment reads and fully validates one segment file.
func (st *Store) loadSegment(id uint64) (*similarity.Segment, error) {
	data, err := os.ReadFile(st.SegPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: segment %d", ErrNotFound, id)
	}
	if err != nil {
		return nil, err
	}
	seg, fileID, err := decodeSegFile(data)
	if err != nil {
		return nil, err
	}
	if fileID != id {
		return nil, fmt.Errorf("%w: segment file claims id %d, name says %d", ErrCorrupt, fileID, id)
	}
	return seg, nil
}

// writeDurable writes a file crash-safely to path: write fills a temp file in
// the same directory, then fsync, atomic rename, directory fsync. The
// failpoints fire at each boundary a real crash could land on.
func (st *Store) writeDurable(path string, write func(f *os.File) error, fpAfterWrite, fpAfterSync string) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close() //freehw:nolint errflow -- best-effort close on a path already returning the write error
		return err
	}
	if err := failpoint.Inject(fpAfterWrite); err != nil {
		f.Close()  //freehw:nolint errflow -- best-effort close on a simulated-crash path; the injected error is the one that matters
		return err // crash: temp written, never synced or renamed
	}
	if err := f.Sync(); err != nil {
		f.Close() //freehw:nolint errflow -- best-effort close on a path already returning the fsync error
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := failpoint.Inject(fpAfterSync); err != nil {
		return err // crash: temp durable, final name still absent or stale
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return st.syncDir()
}

// syncDir fsyncs the store directory so a rename survives power loss.
func (st *Store) syncDir() error {
	d, err := os.Open(st.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Save durably persists one snapshot version: first any segment files not
// yet on disk (cost O(delta) — segments shared with earlier versions are
// skipped by existence check), then the descriptor. Segments without a
// storage id are assigned one here, mutating the snapshot's segments (ids
// are write-once; see similarity.SetID).
//
// The version exists once its descriptor is renamed into place. An error
// before that leaves the previous durable state untouched: committed
// segment files whose descriptor never landed are orphans, which Open
// garbage-collects and a retried publish rewrites. An error after it — in
// the retention sweep or segment GC — leaves the version committed, and
// LoadLatest returns it (at-least-once publish semantics, exercised by
// the recovery suite).
func (st *Store) Save(version uint64, snap *similarity.Snapshot) error {
	if err := failpoint.Inject(FPBeforeTempWrite); err != nil {
		return err
	}
	for i := 0; i < snap.Segments(); i++ {
		g := snap.Segment(i)
		if g.ID() == 0 {
			g.SetID(st.nextSeg)
			st.nextSeg++
		} else if g.ID() >= st.nextSeg {
			// A segment persisted elsewhere (e.g. by a store reopened on the
			// same directory): never hand out its id again.
			st.nextSeg = g.ID() + 1
		}
		path := st.SegPath(g.ID())
		if _, err := os.Stat(path); err == nil {
			continue // already durable from an earlier version
		}
		writeSeg := func(f *os.File) error {
			return writeContainer(f, segMagic, g.ID(), similarity.SnapshotSections, g.WriteSections)
		}
		if err := st.writeDurable(path, writeSeg, FPAfterSegWrite, FPAfterSegSync); err != nil {
			return err
		}
		if err := failpoint.Inject(FPAfterSegCommit); err != nil {
			return err // crash: segment durable, descriptor absent — orphan until retry
		}
	}
	path := st.Path(version)
	writeDesc := func(f *os.File) error {
		return writeContainer(f, descMagic, version, 1, func(emit func(int, []byte) error) error { return emit(0, encodeDescriptor(snap)) })
	}
	if err := st.writeDurable(path, writeDesc, FPAfterTempWrite, FPAfterTempSync); err != nil {
		return err
	}
	if err := failpoint.Inject(FPAfterSave); err != nil {
		return err // crash: version committed, retention sweep skipped
	}
	st.sweep(version)
	if err := failpoint.Inject(FPBeforeSegGC); err != nil {
		return err // crash: sweep done, orphaned segments linger until next GC
	}
	if st.retain > 0 {
		segs, err := st.fileIDs(segPrefix)
		if err == nil {
			st.gcSegments(segs)
		}
	}
	return nil
}

// sweep removes descriptor files beyond the retention bound, never
// touching current or the retain-1 newest versions below it. Best-effort:
// a failed unlink costs disk, not correctness.
func (st *Store) sweep(current uint64) {
	if st.retain <= 0 {
		return
	}
	versions, err := st.Versions()
	if err != nil {
		return
	}
	kept := 0
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i] > current {
			continue // a concurrent newer writer's file is not ours to count
		}
		kept++
		if kept > st.retain {
			os.Remove(st.Path(versions[i]))
		}
	}
}

// gcSegments removes segment files no descriptor references. A descriptor
// that fails to parse contributes no references — it can never be loaded,
// so its segments are live only if another version names them.
// Best-effort, like sweep.
func (st *Store) gcSegments(onDisk []uint64) {
	if len(onDisk) == 0 {
		return
	}
	versions, err := st.Versions()
	if err != nil {
		return
	}
	live := map[uint64]bool{}
	for _, v := range versions {
		data, err := os.ReadFile(st.Path(v))
		if err != nil {
			continue
		}
		magic, _, sections, err := decodeContainer(data)
		if err != nil || magic != descMagic || len(sections) != 1 {
			continue // legacy file (no segment refs) or unreadable descriptor
		}
		refs, err := decodeDescriptor(sections[0])
		if err != nil {
			continue
		}
		for _, ref := range refs {
			live[ref.id] = true
		}
	}
	for _, id := range onDisk {
		if !live[id] {
			os.Remove(st.SegPath(id))
		}
	}
}

// Versions lists the snapshot versions present on disk (by filename),
// ascending. Presence does not imply validity — Load still checksums.
func (st *Store) Versions() ([]uint64, error) { return st.fileIDs(snapPrefix) }

// fileIDs lists the ids of the files named prefix<16 hex digits>.fhs in the
// store directory, ascending: versions for snapPrefix, segments for
// segPrefix.
func (st *Store) fileIDs(prefix string) ([]uint64, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), snapSuffix)
		v, err := strconv.ParseUint(hex, 16, 64)
		if err != nil || len(hex) != 16 {
			continue
		}
		out = append(out, v)
	}
	slices.Sort(out)
	return out, nil
}

// Load reads and fully validates one version: the descriptor, every
// referenced segment file, and the agreement between them (doc counts,
// bitmap sizes, ids). Pre-segmentation files decode directly.
func (st *Store) Load(version uint64) (*similarity.Snapshot, error) {
	data, err := os.ReadFile(st.Path(version))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	magic, fileVersion, sections, err := decodeContainer(data)
	if err != nil {
		return nil, err
	}
	if fileVersion != version {
		return nil, fmt.Errorf("%w: file claims version %d, name says %d", ErrCorrupt, fileVersion, version)
	}
	switch magic {
	case legacyMagic:
		snap, err := similarity.DecodeSnapshot(sections)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return snap, nil
	case descMagic:
		if len(sections) != 1 {
			return nil, fmt.Errorf("%w: descriptor section count %d", ErrCorrupt, len(sections))
		}
		refs, err := decodeDescriptor(sections[0])
		if err != nil {
			return nil, err
		}
		segs := make([]*similarity.Segment, len(refs))
		deads := make([][]uint64, len(refs))
		seen := map[uint64]bool{} // a repeat would read the segment file again
		for i, ref := range refs {
			if seen[ref.id] {
				return nil, fmt.Errorf("%w: segment %d named twice", ErrCorrupt, ref.id)
			}
			seen[ref.id] = true
			seg, err := st.loadSegment(ref.id)
			if err != nil {
				return nil, err
			}
			if seg.Docs() != ref.docs {
				return nil, fmt.Errorf("%w: segment %d has %d docs, descriptor says %d",
					ErrCorrupt, ref.id, seg.Docs(), ref.docs)
			}
			segs[i] = seg
			deads[i] = ref.dead
		}
		return similarity.SnapshotOf(segs, deads), nil
	default:
		return nil, fmt.Errorf("%w: not a snapshot file", ErrCorrupt)
	}
}

// LoadLatest returns the newest version that validates, trying every
// descriptor on disk newest-first and trusting only checksums; it reports
// the versions it skipped. A publish that crashed after its descriptor's
// rename is committed and wins (at-least-once). A store with no usable
// snapshot returns (nil, 0, skipped, nil) — an empty boot, not an error.
func (st *Store) LoadLatest() (snap *similarity.Snapshot, version uint64, skipped []uint64, err error) {
	versions, err := st.Versions()
	if err != nil {
		return nil, 0, nil, err
	}
	for i := len(versions) - 1; i >= 0; i-- {
		if snap, err := st.Load(versions[i]); err == nil {
			return snap, versions[i], skipped, nil
		}
		skipped = append(skipped, versions[i])
	}
	return nil, 0, skipped, nil
}
