package vlog

import (
	"sync"
	"testing"

	"freehw/internal/corpus"
)

// worldSources is the Verilog of the seed-7, scale-1 world: 13 131 files,
// 13.5 MB, the population the curation funnel's syntax stage reads. The
// world builds in well under a second.
var worldSources = sync.OnceValue(func() []string {
	cfg := corpus.DefaultConfig(1)
	cfg.Seed = 7
	var srcs []string
	for _, r := range corpus.BuildWorld(cfg).Repos {
		for _, f := range r.Files {
			if f.IsVerilog {
				srcs = append(srcs, f.Content)
			}
		}
	}
	return srcs
})

// benchWorld times fn over every file of worldSources, one pass per op.
func benchWorld(b *testing.B, fn func(src string)) {
	srcs := worldSources()
	n := 0
	for _, src := range srcs {
		n += len(src)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			fn(src)
		}
	}
}

func BenchmarkLexer(b *testing.B) {
	benchWorld(b, func(src string) {
		for l := NewLexer(src); l.Next().Kind != EOF; {
		}
	})
}

func BenchmarkCheck(b *testing.B) {
	benchWorld(b, func(src string) { _ = Check(src) })
}
