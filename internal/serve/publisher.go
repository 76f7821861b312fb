package serve

import (
	"errors"
	"log"
	"strconv"
	"sync"
	"sync/atomic"

	"freehw/internal/failpoint"
	"freehw/internal/similarity"
	"freehw/internal/snapstore"
)

// corpusState is one published index generation. Audits read whichever
// state they load; a publish swaps the pointer to the next generation.
type corpusState struct {
	snap    *similarity.Snapshot
	version uint64
}

// ReplayInfo reports what NewServer recovered from the snapshot store.
type ReplayInfo struct {
	// Version is the corpus generation recovered from disk (0 = none).
	Version uint64
	// Docs is the recovered snapshot's document count.
	Docs int
	// Skipped lists on-disk versions that failed checksum validation and
	// were passed over in favor of an older good one.
	Skipped []uint64
	// Err is a non-recoverable store error (the server still starts, with
	// an empty corpus).
	Err error
}

// publisher mints corpus versions: every response names the
// corpus_version its verdict was computed under, and this type is the only
// code that creates one. replace, delta and rollback all check their
// If-Version precondition with checkIfVersion under pubMu and commit
// through publishLocked; the merger swaps layouts without minting. It
// knows nothing of HTTP: failures are *publishError, which the handlers'
// writePublishErr puts on the wire.
//
// state is the whole corpus: there is no writer index beside it. A publish
// derives the next immutable snapshot from the served one and swaps it in,
// so a publish that fails or panics before the swap leaves nothing to undo.
type publisher struct {
	state atomic.Pointer[corpusState]
	pubMu sync.Mutex // serializes publishes and merge swaps

	// deltaMu guards deltaPend, the group-commit staging list: concurrent
	// delta uploads enqueue here, and whichever upload wins pubMu commits
	// the whole batch under one Save and one pointer swap.
	deltaMu   sync.Mutex
	deltaPend []*deltaOp

	snaps *snapstore.Store // nil = in-memory only

	// mergeKick wakes the background merger after a publish changes the
	// segment set; the 1-token channel coalesces bursts. Nil when
	// auto-merge is off, so the wake-up send never proceeds.
	mergeKick chan struct{}

	workers       int     // Config.Workers
	mergeMaxSegs  int     // Config.MergeMaxSegments
	mergeDeadFrac float64 // Config.MergeDeadFraction

	// buildGate, when set (tests), runs after a corpus build completes but
	// before the publish lock is taken — it lets the concurrency test hold
	// one slow upload there and prove other publishes proceed.
	buildGate func()
}

// open configures the publisher and, with a snapshot store, replays the
// newest good on-disk version; a corrupt or empty store degrades to an
// empty corpus at version 0.
func (p *publisher) open(cfg Config) (info ReplayInfo) {
	p.snaps = cfg.Store
	p.workers, p.mergeMaxSegs, p.mergeDeadFrac = cfg.Workers, cfg.MergeMaxSegments, cfg.MergeDeadFraction
	if !cfg.DisableAutoMerge {
		p.mergeKick = make(chan struct{}, 1)
	}
	snap := new(similarity.Snapshot)
	if p.snaps != nil {
		var loaded *similarity.Snapshot
		if loaded, info.Version, info.Skipped, info.Err = p.snaps.LoadLatest(); loaded != nil {
			snap, info.Docs = loaded, loaded.Len()
		}
	}
	p.state.Store(&corpusState{snap: snap, version: info.Version})
	return info
}

// current returns the live index generation.
func (p *publisher) current() *corpusState { return p.state.Load() }

// publishError is a refused or failed publish: a stable snake_case code —
// the one the error envelope carries — and the message beside it.
type publishError struct {
	code, msg string
	current   uint64 // codeConflict: the live version compared against
}

func (e *publishError) Error() string { return e.msg }

const (
	codeConflict = "version_conflict"  // If-Version named another version
	codeNoStore  = "no_store"          // rollback with nothing to roll back to
	codeSwept    = "version_swept"     // rollback target removed by retention: gone by policy
	codeNotFound = "version_not_found" // rollback target never published
	codeCorrupt  = "version_corrupt"   // rollback target failed its checksums
	codePersist  = "persist_failed"    // not durable; the previous snapshot keeps serving
)

func persistFailed(err error) error {
	return &publishError{code: codePersist, msg: "publish not durable: " + err.Error()}
}

// errPublishAborted surfaces to delta ops whose group leader crashed
// before their results were decided.
var errPublishAborted = persistFailed(errors.New("corpus publish aborted"))

// checkIfVersion is the one If-Version comparison: every publish calls it
// under pubMu with the version it is about to build on, so the conflict it
// reports names exactly the version compared against.
func checkIfVersion(ifVersion *uint64, live uint64) error {
	if ifVersion != nil && *ifVersion != live {
		return &publishError{code: codeConflict, current: live,
			msg: "corpus version changed; re-read and retry (current version " + strconv.FormatUint(live, 10) + ")"}
	}
	return nil
}

// published is what a committed publish reports back: the (never zero)
// version it minted, the live document count, and a delta's effect.
type published struct {
	version              uint64
	live, added, removed int
}

// publishLocked is the one commit path: it publishes snap as the next
// generation — durable on disk, when there is a store, before it serves its
// first audit. On failure the previous snapshot keeps serving.
//
//freehw:guardedby pubMu
func (p *publisher) publishLocked(snap *similarity.Snapshot) (published, error) {
	version := p.current().version + 1
	if p.snaps != nil {
		if err := p.snaps.Save(version, snap); err != nil {
			return published{}, persistFailed(err)
		}
	}
	if err := failpoint.Inject(FPBeforeSwap); err != nil {
		// Crash between durability and swap: the version is on disk and
		// will be replayed on restart, but this process never served it.
		return published{}, persistFailed(err)
	}
	p.state.Store(&corpusState{snap: snap, version: version})
	return published{version: version, live: snap.Len()}, nil
}

// replace publishes seg — nil for none — as the whole corpus. The segment
// was built off to the side: audits keep answering against the old snapshot,
// and the publish lock is NOT held during a build, so a huge upload never
// delays a concurrent publish. Concurrent publishes are ordered by whoever
// reaches the swap first (last writer wins, versions strictly increasing).
func (p *publisher) replace(seg *similarity.Segment, ifVersion *uint64) (published, error) {
	snap := new(similarity.Snapshot)
	if seg != nil {
		snap = snap.Append(seg)
	}
	if p.buildGate != nil {
		p.buildGate()
	}
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	if err := checkIfVersion(ifVersion, p.current().version); err != nil {
		return published{}, err
	}
	return p.publishLocked(snap)
}

// rollback republishes retained version `version`, as loaded, as a NEW
// generation — history stays append-only, so a rollback is itself visible,
// durable, and rollback-able — and future deltas build on its segments.
//
// Load and republish happen under the publish lock. The retention sweep
// runs only inside Save, and Save runs only under this lock, so the
// retained set is frozen from here on: a version that validates below
// cannot be swept before its contents become the next generation, and a
// Load miss is a stable fact rather than a race with a concurrent publish.
// Rollbacks are rare; briefly delaying a concurrent publish's swap is the
// price of never reporting a spurious not-found.
func (p *publisher) rollback(version uint64, ifVersion *uint64) (published, error) {
	if p.snaps == nil {
		return published{}, &publishError{code: codeNoStore, msg: "rollback requires a snapshot store (-data-dir)"}
	}
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	cur := p.current().version
	if err := checkIfVersion(ifVersion, cur); err != nil {
		return published{}, err
	}
	snap, err := p.snaps.Load(version)
	if errors.Is(err, snapstore.ErrNotFound) {
		// A generation this store once held is gone by policy — the client
		// should pick a retained one; anything else was never published.
		v := strconv.FormatUint(version, 10)
		if version < 1 || version > cur {
			return published{}, &publishError{code: codeNotFound, msg: "no snapshot was ever published as version " + v}
		}
		msg := "version " + v + " was removed by the retention sweep"
		if vs, verr := p.snaps.Versions(); verr == nil && len(vs) > 0 {
			msg += " (retained: " + strconv.FormatUint(vs[0], 10) + "-" + strconv.FormatUint(vs[len(vs)-1], 10) + ")"
		}
		return published{}, &publishError{code: codeSwept, msg: msg}
	}
	if err != nil {
		return published{}, &publishError{code: codeCorrupt, msg: "retained snapshot failed validation: " + err.Error()}
	}
	return p.publishLocked(snap)
}

// deltaOp is one delta upload staged for group commit: a pre-built
// segment of added documents (nil when the delta only removes), the names
// to tombstone, and an optional If-Version precondition.
type deltaOp struct {
	seg       *similarity.Segment
	remove    []string
	ifVersion *uint64
	res       published
	err       error
	done      chan struct{}
}

// decided reports whether a commit pass has settled the op: committed ops
// carry the version they published, refused and failed ones their error.
func (op *deltaOp) decided() bool { return op.err != nil || op.res.version != 0 }

// delta publishes one delta through the group-commit path: the op joins
// the staging list, and whichever goroutine wins the publish lock commits
// every staged op under a single Save and pointer swap. Uploads that
// arrive while a commit is in flight coalesce into the next batch, so N
// concurrent deltas cost O(batches), not O(N), durability writes.
func (p *publisher) delta(op *deltaOp) (published, error) {
	op.done = make(chan struct{})
	p.deltaMu.Lock()
	p.deltaPend = append(p.deltaPend, op)
	p.deltaMu.Unlock()

	p.commitPending()
	<-op.done
	return op.res, op.err
}

// commitPending contends for the publish lock and commits whatever delta
// batch is staged by then, then — as the same leader — whatever that
// batch carried over, until nothing is. An empty batch means a previous
// leader already drained this goroutine's op — its result arrives via
// op.done. The defer keeps pubMu released even when a commit panics out of
// an injected crash (commitDeltaBatchLocked completes every op before
// re-panicking).
func (p *publisher) commitPending() {
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	p.deltaMu.Lock()
	batch := p.deltaPend
	p.deltaPend = nil
	p.deltaMu.Unlock()
	for len(batch) > 0 {
		batch = p.commitDeltaBatchLocked(batch)
	}
}

// commitDeltaBatchLocked folds a staged delta batch into a snapshot derived
// from the served one and publishes it as one new generation. Ops whose
// If-Version precondition fails are skipped (they report the conflict); the
// rest each derive the next snapshot — O(delta + segments), never
// O(corpus) — and share a single publishLocked. Compare-and-swap admits one
// winner per version: a conditional op may only be the first op applied to
// its generation, so a later one is carried — returned undecided, for the
// leader to judge against whatever version this batch leaves live — while
// unconditional ops coalesce freely. A persist failure, or a panic out of
// an injected crash, drops the derived snapshot: nothing was changed, so
// nothing is rolled back. Every op is always completed (a panicking leader
// runs no next batch, so its carried ops abort with the rest), then a panic
// resumes unwinding.
//
//freehw:guardedby pubMu
func (p *publisher) commitDeltaBatchLocked(batch []*deltaOp) (carry []*deltaOp) {
	cur := p.current()
	defer func() {
		r := recover()
		for _, op := range batch {
			if !op.decided() {
				if r == nil {
					continue // carried
				}
				op.err = errPublishAborted
			}
			close(op.done)
		}
		if r != nil {
			panic(r)
		}
	}()

	snap := cur.snap
	var applied []*deltaOp
	for _, op := range batch {
		if op.ifVersion != nil {
			if len(applied) > 0 {
				carry = append(carry, op)
				continue
			}
			if op.err = checkIfVersion(op.ifVersion, cur.version); op.err != nil {
				continue
			}
		}
		snap, op.res.removed = snap.Remove(op.remove)
		if op.seg != nil && op.seg.Docs() > 0 {
			snap = snap.Append(op.seg)
			op.res.added = op.seg.Docs()
		}
		applied = append(applied, op)
	}
	if len(applied) == 0 {
		return nil
	}
	res, err := p.publishLocked(snap)
	for _, op := range applied {
		op.res.version, op.res.live, op.err = res.version, res.live, err
	}
	if err == nil {
		select { // wake the merger, unless auto-merge is off or a wake-up is already pending
		case p.mergeKick <- struct{}{}:
		default:
		}
	}
	return carry
}

// merger is the background compaction loop: each kick, it runs merge
// steps until the segment set satisfies the merge policy. Merges never
// block publishes — the expensive rebuild happens outside the publish
// lock, revalidated before the swap — and never change verdicts, so the
// swap reuses the live version rather than minting a new one.
func (p *publisher) merger(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-p.mergeKick:
			for p.mergeOnce() {
				select {
				case <-stop:
					return
				default:
				}
			}
		}
	}
}

// mergeOnce plans one compaction on the served snapshot, rebuilds the
// merged segment with no lock held, then swaps it in if the run is still
// current. Reports whether it changed the segment set. A panic (injected
// crash, or a bug in the merge path) abandons the step: background
// compaction must never take serving down.
func (p *publisher) mergeOnce() (changed bool) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("serve: background merge abandoned: %v", r)
			changed = false
		}
	}()
	plan := p.current().snap
	i, j, ok := pickMergeRun(plan, p.mergeMaxSegs, p.mergeDeadFrac)
	if !ok {
		return false
	}
	var segs []*similarity.Segment
	var deads [][]uint64
	for k := i; k <= j; k++ {
		segs, deads = append(segs, plan.Segment(k)), append(deads, plan.SegmentDead(k))
	}
	return p.swapMerge(plan, i, j, similarity.MergeSegments(segs, deads)) // O(run)
}

// pickMergeRun applies the merge policy: drop or compact any segment that
// is fully or mostly dead (tombstoned fraction above deadFrac), then
// bound the segment count by merging the adjacent pair with the fewest
// combined live documents while more than maxSegs segments remain.
func pickMergeRun(snap *similarity.Snapshot, maxSegs int, deadFrac float64) (int, int, bool) {
	n := snap.Segments()
	for i := 0; i < n; i++ {
		docs, live := snap.Segment(i).Docs(), snap.SegmentLive(i)
		if live == 0 || float64(docs-live) > deadFrac*float64(docs) {
			return i, i, true
		}
	}
	if n > maxSegs {
		best, at := -1, 0
		for i := 0; i+1 < n; i++ {
			if a := snap.SegmentLive(i) + snap.SegmentLive(i+1); best < 0 || a < best {
				best, at = a, i
			}
		}
		return at, at + 1, true
	}
	return 0, 0, false
}

// swapMerge installs a rebuilt segment over plan's run [i, j] if the served
// snapshot still holds that run, republishing it in place (same version: a
// merge changes physical layout, never verdicts, so audits memoized under
// this version stay exact). A stale plan — a publish or removal raced the
// rebuild — is dropped; the merger replans on its next kick.
func (p *publisher) swapMerge(plan *similarity.Snapshot, i, j int, merged *similarity.Segment) bool {
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	cur := p.current()
	next := cur.snap.ReplaceRun(plan, i, j, merged)
	if next == nil {
		return false
	}
	if err := failpoint.Inject(FPMergeSwap); err != nil {
		// Injected crash at the swap boundary: the merged segment is
		// dropped and serving continues unchanged.
		return false
	}
	p.state.Store(&corpusState{snap: next, version: cur.version})
	return true
}
