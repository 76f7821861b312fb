package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"freehw/internal/failpoint"
	"freehw/internal/similarity"
	"freehw/internal/snapstore"
)

// publisherModel is the trivially-correct corpus lifecycle: the live
// documents in publish order, a version counter, and every generation's
// documents for rollback.
type publisherModel struct {
	names, texts []string
	version      uint64
	history      map[uint64][2][]string
}

// errCode is the publishError code of err ("" when it is something else).
func errCode(err error) string {
	var pe *publishError
	if errors.As(err, &pe) {
		return pe.code
	}
	return ""
}

func (m *publisherModel) commit(names, texts []string) {
	m.names, m.texts = names, texts
	m.version++
	m.history[m.version] = [2][]string{names, texts}
}

// The publisher, driven with no HTTP by a seeded operation sequence —
// replace, delta add+remove, If-Version hit and miss, rollback, an injected
// persist failure, mergeOnce and, with a store, a restart on the same
// directory every few steps — agrees after every step with the model:
// versions strictly monotonic, a refused or failed op changes nothing, and
// the served snapshot's verdicts are bit for bit those of a one-segment
// rebuild of the model's documents. A restart replays the model's version
// and live count from a directory that holds nothing but its descriptors
// and the segments they name; the deltas after it remove names that live
// in decoded segments. Rungs of ROADMAP item 3(a).
func TestPublisherAgainstModel(t *testing.T) {
	const retain = 4
	for _, durable := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("durable=%v/seed=%d", durable, seed), func(t *testing.T) {
				defer failpoint.DisableAll()
				cfg := DefaultConfig()
				cfg.MergeMaxSegments = 2
				cfg.fillDefaults()
				// The injected failure is one that leaves nothing behind:
				// without a store the swap failpoint, with one the store's
				// first (a failure after Save would leave an unserved version
				// on disk and move the retention window — crash semantics the
				// kill-and-recover suites own).
				failAt, dir := FPBeforeSwap, t.TempDir()
				if durable {
					failAt = snapstore.FPBeforeTempWrite
				}
				var p *publisher
				restart := func() ReplayInfo {
					if durable {
						st, err := snapstore.Open(dir, retain)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Store = st
					}
					p = new(publisher)
					return p.open(cfg)
				}
				restart()
				rng := rand.New(rand.NewSource(seed))
				model := &publisherModel{history: map[uint64][2][]string{}}
				var removed string // some once-live text: must stop matching itself exactly
				nextDoc := 0
				fresh := func(n int) (names, texts []string) {
					for ; n > 0; n-- {
						names = append(names, fmt.Sprintf("m%d_d%d.v", seed, nextDoc))
						texts = append(texts, randVerilog(rng, int(seed)*10000+nextDoc))
						nextDoc++
					}
					return names, texts
				}
				// precondition draws none, a hit, or a miss, and reports
				// whether the op must be refused.
				precondition := func() (ifVersion *uint64, miss bool) {
					switch v := model.version; rng.Intn(4) {
					case 0:
						return &v, false
					case 1:
						v += 1 + uint64(rng.Intn(3))
						return &v, true
					}
					return nil, false
				}

				for step := 0; step < 80; step++ {
					before := model.version
					var err error
					var res published
					wantNames, wantTexts := model.names, model.texts
					ifVersion, miss := precondition()
					failing := false
					op := rng.Intn(10)
					if step == 0 {
						op = 0 // start from a non-empty corpus
					}
					if op <= 5 && !miss && rng.Intn(6) == 0 {
						failing = true
						failpoint.Enable(failAt, func(string) error { return errors.New("injected") })
					}
					switch {
					case op <= 1: // replace
						wantNames, wantTexts = fresh(2 + rng.Intn(6))
						res, err = p.replace(similarity.BuildSegment(wantNames, wantTexts, 1), ifVersion)
					case op <= 5: // delta: add up to 3, remove up to 2 (one possibly unknown)
						addNames, addTexts := fresh(rng.Intn(4))
						var remove []string
						for n := rng.Intn(3); n > 0 && len(model.names) > 0; n-- {
							remove = append(remove, model.names[rng.Intn(len(model.names))])
						}
						if rng.Intn(4) == 0 {
							remove = append(remove, "never-published.v")
						}
						if len(addNames) == 0 && len(remove) == 0 {
							remove = []string{"never-published.v"}
						}
						wantNames, wantTexts = nil, nil
						for i, name := range model.names {
							if slices.Contains(remove, name) {
								removed = model.texts[i]
								continue
							}
							wantNames, wantTexts = append(wantNames, name), append(wantTexts, model.texts[i])
						}
						wantNames, wantTexts = append(wantNames, addNames...), append(wantTexts, addTexts...)
						dop := &deltaOp{remove: remove, ifVersion: ifVersion}
						if len(addNames) > 0 {
							dop.seg = similarity.BuildSegment(addNames, addTexts, 1)
						}
						res, err = p.delta(dop)
						if err == nil && res.live != len(wantNames) {
							t.Fatalf("step %d: delta reports %d live, model has %d", step, res.live, len(wantNames))
						}
					case op <= 7: // rollback
						target := 1 + uint64(rng.Intn(int(model.version)+2))
						res, err = p.rollback(target, ifVersion)
						wantCode := ""
						switch {
						case !durable:
							wantCode = codeNoStore
						case miss: // judged below
						case target > model.version:
							wantCode = codeNotFound
						case target+retain <= model.version:
							wantCode = codeSwept
							if want := fmt.Sprintf("(retained: %d-%d)", model.version-retain+1, model.version); !strings.Contains(fmt.Sprint(err), want) {
								t.Fatalf("step %d: rollback to swept %d = %v, want it to name %s", step, target, err, want)
							}
						}
						if wantCode != "" {
							if code := errCode(err); code != wantCode {
								t.Fatalf("step %d: rollback to %d at version %d = %v (%q), want %q", step, target, model.version, err, code, wantCode)
							}
							continue
						}
						wantNames, wantTexts = model.history[target][0], model.history[target][1]
					default: // merge to the policy's fixed point: layout only
						for p.mergeOnce() {
						}
						if segs := p.current().snap.Segments(); segs > cfg.MergeMaxSegments {
							t.Fatalf("step %d: %d segments after merging, policy bound is %d", step, segs, cfg.MergeMaxSegments)
						}
						miss, res.version = false, before+1 // not a publish: nothing to judge
					}
					failpoint.DisableAll()

					var pe *publishError
					switch {
					case miss:
						if !errors.As(err, &pe) || pe.code != codeConflict || pe.current != before {
							t.Fatalf("step %d: stale If-Version = %v, want a version_conflict naming %d", step, err, before)
						}
					case failing:
						if errCode(err) != codePersist {
							t.Fatalf("step %d: injected failure = %v, want persist_failed", step, err)
						}
					case err != nil:
						t.Fatalf("step %d (op %d): %v", step, op, err)
					case op <= 7:
						model.commit(wantNames, wantTexts)
						if res.version != before+1 {
							t.Fatalf("step %d: published version %d after %d", step, res.version, before)
						}
					}

					if durable && step%6 == 5 {
						info := restart()
						if info.Version != model.version || info.Docs != len(model.names) || len(info.Skipped) != 0 || info.Err != nil {
							t.Fatalf("step %d: restart replayed %+v, model has version %d with %d docs", step, info, model.version, len(model.names))
						}
						assertOnlyLiveFiles(t, cfg.Store)
					}

					// The served state is the model's, whatever just happened.
					st := p.current()
					if st.version != model.version || st.snap.Len() != len(model.names) {
						t.Fatalf("step %d (op %d): serving version %d with %d docs, model has version %d with %d",
							step, op, st.version, st.snap.Len(), model.version, len(model.names))
					}
					offline := similarity.SealCorpus(model.names, model.texts, 1)
					queries := []string{"module novel(input clk); endmodule", removed}
					for i := 0; i < 3 && i < len(model.texts); i++ {
						queries = append(queries, model.texts[rng.Intn(len(model.texts))])
					}
					for _, q := range queries {
						if got, want := st.snap.Best(q), offline.Best(q); got != want {
							t.Fatalf("step %d (op %d): served %+v != model %+v", step, op, got, want)
						}
					}
				}
				if model.version < 20 {
					t.Fatalf("only %d generations published: the sequence is not exercising the publisher", model.version)
				}
			})
		}
	}
}
