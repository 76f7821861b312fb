package snapstore

import (
	"bytes"
	"testing"
)

// benchSnapshotDocs sizes the benchmark corpus: big enough that encode/
// decode dominates fixed costs, small enough for CI smoke runs.
const benchSnapshotDocs = 200

func BenchmarkSnapshotSave(b *testing.B) {
	st, err := Open(b.TempDir(), 2)
	if err != nil {
		b.Fatal(err)
	}
	snap, _ := testSnapshot(b, 11, benchSnapshotDocs)
	// Prime once so the segment file is durable and ids are assigned;
	// every timed iteration then measures the steady-state publish cost —
	// descriptor plus manifest, not the corpus (the O(delta) property).
	if err := st.Save(1, snap); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bytes.Join(encodeContainer(descMagic, 1, [][]byte{encodeDescriptor(snap)}), nil))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Save(uint64(i+2), snap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotLoad(b *testing.B) {
	st, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	snap, _ := testSnapshot(b, 11, benchSnapshotDocs)
	if err := st.Save(1, snap); err != nil {
		b.Fatal(err)
	}
	size := len(bytes.Join(encodeContainer(descMagic, 1, [][]byte{encodeDescriptor(snap)}), nil)) + len(bytes.Join(encodeContainer(segMagic, snap.Segment(0).ID(), snap.Segment(0).EncodeSections()), nil))
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Load(1); err != nil {
			b.Fatal(err)
		}
	}
}
