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
// replace, delta add+remove, If-Version hit and miss, rollback, a crash at
// a random persistence failpoint in error or panic mode, mergeOnce and,
// with a store, a restart on the same directory every few steps — agrees
// after every step with the model: versions strictly monotonic, a refused
// or crashed op changes nothing live, and the served snapshot's verdicts
// are bit for bit those of a one-segment rebuild of the model's documents.
// A panic is recovered as recoverMiddleware recovers it. A crash that
// committed (crashRecovers) is replayed by a restart at once, as the op's
// documents at the next version; one that did not is followed by an op the
// same publisher must commit, which it could not if the unwinding had left
// pubMu held. A restart replays the model's version and live count from a
// directory that holds nothing but its descriptors and the segments they
// name; the deltas after it remove names that live in decoded segments.
// After every durable step the store holds the versions the model minted
// that the retention sweep has not removed. Rungs of ROADMAP item 3(a).
func TestPublisherAgainstModel(t *testing.T) {
	const retain = 4
	for _, durable := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("durable=%v/seed=%d", durable, seed), func(t *testing.T) {
				defer failpoint.DisableAll()
				cfg := DefaultConfig()
				cfg.MergeMaxSegments = 2
				cfg.fillDefaults()
				// Without a store only the swap failpoint is on the path, and
				// a crash there commits nothing.
				crashPoints, dir := []string{FPBeforeSwap}, t.TempDir()
				if durable {
					crashPoints = persistenceFailpoints(t)
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
				var removed string  // some once-live text: must stop matching itself exactly
				oldest := uint64(1) // the oldest version the retention sweep has left
				mustCommit := false // the previous op crashed without committing
				crashes := 0
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
					op, crash := rng.Intn(10), false
					switch {
					case step == 0:
						op = 0 // start from a non-empty corpus
					case mustCommit:
						op = rng.Intn(6)
						if miss {
							ifVersion, miss = nil, false
						}
					default:
						crash = op <= 5 && !miss && rng.Intn(4) == 0
					}
					crashAt, crashMode := "", ""
					// publish runs one publish the way the handler does: when
					// the step crashes, it first arms a failpoint on the
					// publish's path (the segment-file ones only when it writes
					// a new segment); a panic is recovered, as
					// recoverMiddleware recovers it.
					publish := func(newSeg bool, f func() (published, error)) (res published, err error) {
						if crash {
							points := crashPoints
							if !newSeg {
								points = slices.DeleteFunc(slices.Clone(points), func(fp string) bool { return strings.Contains(fp, "/after-seg-") })
							}
							crashAt, crashMode = points[rng.Intn(len(points))], "error"
							if rng.Intn(2) == 0 {
								crashMode = "panic"
							}
							crashModes[crashMode](crashAt)
						}
						defer func() {
							if r := recover(); r != nil {
								err = fmt.Errorf("recovered: %v", r)
							}
						}()
						return f()
					}
					switch {
					case op <= 1: // replace
						wantNames, wantTexts = fresh(2 + rng.Intn(6))
						seg := similarity.BuildSegment(wantNames, wantTexts, 1)
						res, err = publish(true, func() (published, error) { return p.replace(seg, ifVersion) })
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
						var seg *similarity.Segment
						if len(addNames) > 0 {
							seg = similarity.BuildSegment(addNames, addTexts, 1)
						}
						res, err = publish(seg != nil, func() (published, error) { return p.delta(seg, remove, ifVersion) })
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
						case target < oldest:
							wantCode = codeSwept
							if want := fmt.Sprintf("(retained: %d-%d)", oldest, model.version); !strings.Contains(fmt.Sprint(err), want) {
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
					swept := false // this step ran a Save's retention sweep
					switch {
					case miss:
						if !errors.As(err, &pe) || pe.code != codeConflict || pe.current != before {
							t.Fatalf("step %d: stale If-Version = %v, want a version_conflict naming %d", step, err, before)
						}
					case crashAt != "":
						crashes++
						if err == nil || crashMode == "error" && errCode(err) != codePersist {
							t.Fatalf("step %d: %s crash at %s = %v, want persist_failed or a recovered panic", step, crashMode, crashAt, err)
						}
						if st := p.current(); st.version != before || st.snap.Len() != len(model.names) {
							t.Fatalf("step %d: crash at %s moved the live state to version %d with %d docs", step, crashAt, st.version, st.snap.Len())
						}
						if !durable || crashRecovers[crashAt] == 1 {
							mustCommit = true
							break
						}
						// Committed: a restart serves the op's documents.
						model.commit(wantNames, wantTexts)
						if info := restart(); info.Version != model.version || info.Docs != len(model.names) {
							t.Fatalf("step %d: restart after a crash at %s replayed %+v, want version %d with %d docs", step, crashAt, info, model.version, len(model.names))
						}
						swept = crashAt != snapstore.FPAfterSave
					case err != nil:
						t.Fatalf("step %d (op %d): %v", step, op, err)
					case op <= 7:
						model.commit(wantNames, wantTexts)
						if res.version != before+1 {
							t.Fatalf("step %d: published version %d after %d", step, res.version, before)
						}
						mustCommit, swept = false, true
					}

					if durable && step%6 == 5 {
						info := restart()
						if info.Version != model.version || info.Docs != len(model.names) || len(info.Skipped) != 0 || info.Err != nil {
							t.Fatalf("step %d: restart replayed %+v, model has version %d with %d docs", step, info, model.version, len(model.names))
						}
						assertOnlyLiveFiles(t, cfg.Store)
					}
					if durable { // the retention sweep: the newest retain versions stay, older ones until a sweep runs
						if swept {
							oldest = max(model.version, retain) - retain + 1
						}
						var want []uint64
						for v := oldest; v <= model.version; v++ {
							want = append(want, v)
						}
						if got, err := cfg.Store.Versions(); err != nil || !slices.Equal(got, want) {
							t.Fatalf("step %d (op %d): the store holds versions %v (%v), want %v", step, op, got, err, want)
						}
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
				if model.version < 20 || crashes == 0 {
					t.Fatalf("%d generations published, %d crashes: the sequence is not exercising the publisher", model.version, crashes)
				}
			})
		}
	}
}
