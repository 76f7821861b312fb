package veval

import "testing"

// BenchmarkGradeSuite grades every suite problem's reference body as a
// completion, with the reference traces already cached: one op parses,
// elaborates and simulates each of the suite's candidates once, which is
// what grading a Table II sample costs the simulator.
//
//	go test -run '^$' -bench GradeSuite -benchmem -cpu 1 ./internal/veval
func BenchmarkGradeSuite(b *testing.B) {
	suite := BuildSuite()
	g := NewGrader()
	for _, p := range suite {
		g.Grade(p, referenceCompletion(p)) // caches the reference trace
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range suite {
			if res := g.Grade(p, referenceCompletion(p)); !res.Pass {
				b.Fatalf("%s: %s", p.ID, res.Reason)
			}
		}
	}
}
