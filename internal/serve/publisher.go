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
// code that creates one. replace, delta and rollback each take pubMu, check
// their If-Version precondition with checkIfVersion and commit through
// publishLocked, one version per publish; the merger swaps layouts without
// minting. It knows nothing of HTTP: failures are *publishError, which the
// handlers' writePublishErr puts on the wire.
//
// state is the whole corpus: there is no writer index beside it. A publish
// derives the next immutable snapshot from the served one and swaps it in,
// so a publish that fails or panics before the swap leaves nothing to undo;
// a panic releases pubMu through the deferred unlock.
type publisher struct {
	state atomic.Pointer[corpusState]
	pubMu sync.Mutex // serializes publishes and merge swaps

	snaps *snapstore.Store // nil = in-memory only

	mergeKick chan struct{} // see kickMerger

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
	p.mergeMaxSegs, p.mergeDeadFrac = cfg.MergeMaxSegments, cfg.MergeDeadFraction
	p.mergeKick = make(chan struct{}, 1)
	snap := new(similarity.Snapshot)
	if p.snaps != nil {
		var loaded *similarity.Snapshot
		if loaded, info.Version, info.Skipped, info.Err = p.snaps.LoadLatest(); loaded != nil {
			snap, info.Docs = loaded, loaded.Len()
		}
	}
	p.state.Store(&corpusState{snap: snap, version: info.Version})
	p.kickMerger()
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
// The next version is one past the newer of the live version and the
// store's newest: a publish that failed after its descriptor's rename left
// its version committed on disk (a restart would serve it), so that
// version is never minted again.
//
//freehw:guardedby pubMu
func (p *publisher) publishLocked(snap *similarity.Snapshot) (published, error) {
	version := p.current().version + 1
	if p.snaps != nil {
		vs, err := p.snaps.Versions()
		if err != nil {
			return published{}, persistFailed(err)
		}
		if n := len(vs); n > 0 {
			version = max(version, vs[n-1]+1)
		}
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
	res, err := p.publishLocked(snap)
	if err == nil {
		p.kickMerger()
	}
	return res, err
}

// delta publishes one delta on the served snapshot: seg — nil when the
// delta only removes, built off to the side like replace's — is appended
// after the names in remove are tombstoned, so the next snapshot costs
// O(delta + segments), never O(corpus).
func (p *publisher) delta(seg *similarity.Segment, remove []string, ifVersion *uint64) (published, error) {
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	cur := p.current()
	if err := checkIfVersion(ifVersion, cur.version); err != nil {
		return published{}, err
	}
	snap, removed := cur.snap.Remove(remove)
	added := 0
	if seg != nil && seg.Docs() > 0 {
		snap, added = snap.Append(seg), seg.Docs()
	}
	res, err := p.publishLocked(snap)
	if err != nil {
		return published{}, err
	}
	p.kickMerger()
	res.added, res.removed = added, removed
	return res, nil
}

// kickMerger wakes the background merger: after a delta adds a segment or
// tombstones, and after a replay or rollback installs a layout the merge
// policy may not allow (merges are never saved, so a restored layout is a
// publish's, not the merger's). The 1-token channel coalesces bursts.
func (p *publisher) kickMerger() {
	select {
	case p.mergeKick <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// merger is the background compaction loop: each kick, it runs merge
// steps until the segment set satisfies the merge policy. Merges never
// block publishes — the expensive rebuild happens outside the publish
// lock, revalidated before the swap — and never change verdicts, so the
// swap reuses the live version rather than minting a new one. It closes
// done when it returns.
func (p *publisher) merger(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
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
