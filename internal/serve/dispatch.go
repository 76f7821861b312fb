package serve

import (
	"context"
	"errors"
	"sync"

	"freehw/internal/failpoint"
	"freehw/internal/similarity"
	"freehw/internal/vcache"
)

// auditJob is one queued audit.
type auditJob struct {
	text  string
	k     int
	entry *vcache.Entry
	done  chan auditResult
}

// jobPool recycles audit jobs and their 1-buffered result channels.
// Only the normal completion path may Put: a job abandoned on client
// disconnect or shutdown can still receive a late buffered send, so it
// must go to the GC instead of being reused.
var jobPool = sync.Pool{New: func() any { return &auditJob{done: make(chan auditResult, 1)} }}

// auditResult carries the verdict plus the snapshot generation that
// produced it.
type auditResult struct {
	best    similarity.Match
	matches []similarity.Match
	version uint64
	length  int
}

// submit's refusals; anything else it returns is an injected enqueue fault
// or the caller's own ctx.Err().
var (
	errQueueFull    = errors.New("audit queue full")
	errShuttingDown = errors.New("server shutting down")
)

// submit runs one audit through the queue and waits for its verdict:
// enqueue (or shed — a full queue refuses now instead of stacking
// latency), steal the pump, wait.
//
//freehw:hotpath
func (s *Server) submit(ctx context.Context, text string, k int, entry *vcache.Entry) (auditResult, error) {
	if err := failpoint.Inject(FPEnqueue); err != nil {
		return auditResult{}, err
	}
	job := jobPool.Get().(*auditJob)
	job.text, job.k, job.entry = text, k, entry
	select {
	case s.queue <- job:
	default:
		job.text, job.entry = "", nil
		jobPool.Put(job)
		return auditResult{}, errQueueFull
	}
	// Idle fast path: steal the pump and run the dispatcher pass on this
	// goroutine — the common single-request case then skips two scheduler
	// handoffs. When the pump is already held (a batch is in flight), wake
	// the background dispatcher instead.
	if !s.pump() {
		s.kickDispatch()
	}
	select {
	case res := <-job.done:
		// Only the completed path recycles: an abandoned job's buffered
		// done-send may still be in flight, so those leak to the GC.
		job.text, job.entry = "", nil
		jobPool.Put(job)
		return res, nil
	case <-ctx.Done():
		// Client gone; the dispatcher's buffered send still completes.
		return auditResult{}, ctx.Err()
	case <-s.stop:
		return auditResult{}, errShuttingDown
	}
}

// dispatch is the background half of the micro-batching pump: it sleeps
// until an enqueuing handler kicks it (because the pump was already
// held), then drains and scores batches until the queue is empty — each
// batch that found work re-kicks, so the next pass comes back through the
// select and sees a stop. On the idle path the handler itself runs pump()
// and the dispatcher never wakes.
func (s *Server) dispatch() {
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
			s.pumpMu.Lock()
			ran := s.pumpLocked()
			s.pumpMu.Unlock()
			if ran {
				s.kickDispatch()
			}
		}
	}
}

// pump gives the calling goroutine one shot at being the dispatcher: if
// the pump is free it drains and scores one batch in place and reports
// true. Callers that enqueued work must kick the dispatcher when the
// pump is busy — and after a successful pass that left jobs behind — so
// no job is ever stranded.
func (s *Server) pump() bool {
	if !s.pumpMu.TryLock() {
		return false
	}
	s.pumpLocked()
	s.pumpMu.Unlock()
	if len(s.queue) > 0 {
		s.kickDispatch()
	}
	return true
}

// kickDispatch wakes the background dispatcher; the 1-token channel
// coalesces concurrent kicks.
func (s *Server) kickDispatch() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// pumpLocked drains one batch (up to MaxBatch) and scores it. Caller
// holds pumpMu. Reports whether any job was processed.
//
//freehw:guardedby pumpMu
//freehw:hotpath
func (s *Server) pumpLocked() bool {
	batch := s.batchBuf[:0]
drain:
	for len(batch) < s.cfg.MaxBatch {
		select {
		case job := <-s.queue:
			batch = append(batch, job)
		default:
			break drain
		}
	}
	s.batchBuf = batch
	if len(batch) == 0 {
		return false
	}
	s.busy.Add(1)
	s.runBatch(batch)
	s.busy.Add(-1)
	// Drop the job pointers so completed audits do not linger in the
	// reusable buffer.
	clear(batch)
	return true
}

// runBatch scores one batch against the current snapshot. Best-only jobs
// share a single deduplicated BestBatch pass; top-k jobs fan out over the
// same snapshot. Every verdict lands in the content-hash memo under the
// snapshot version that produced it.
//
//freehw:hotpath
func (s *Server) runBatch(batch []*auditJob) {
	if s.batchGate != nil {
		s.batchGate()
	}
	st := s.current()
	s.m.batches.Add(1)
	s.m.batchedJobs.Add(int64(len(batch)))

	if len(batch) == 1 && batch[0].k <= 1 {
		// Single best-only job — the common idle-path shape: score it
		// directly, no partition slices, no batch fan-out.
		j := batch[0]
		m := st.snap.Best(j.text)
		j.entry.StoreBestMatch(st.version, m)
		j.done <- auditResult{best: m, version: st.version, length: st.snap.Len()}
		return
	}

	var bestJobs []*auditJob
	var texts []string
	var topkJobs []*auditJob
	for _, j := range batch {
		if j.k > 1 {
			topkJobs = append(topkJobs, j)
		} else {
			bestJobs = append(bestJobs, j)
			texts = append(texts, j.text)
		}
	}
	if len(bestJobs) > 0 {
		matches := st.snap.BestBatch(s.cfg.Workers, texts)
		for i, j := range bestJobs {
			j.entry.StoreBestMatch(st.version, matches[i])
			j.done <- auditResult{best: matches[i], version: st.version, length: st.snap.Len()}
		}
	}
	for _, j := range topkJobs {
		// Clamp client-controlled k: TopK pre-allocates its heap at
		// capacity k, and nothing beyond the corpus size can match anyway.
		k := j.k
		if n := st.snap.Len(); k > n {
			k = n
		}
		ms := st.snap.TopK(j.text, k)
		res := auditResult{matches: ms, version: st.version, length: st.snap.Len()}
		if len(ms) > 0 {
			res.best = ms[0]
		} else {
			res.best = similarity.Match{Index: -1}
		}
		j.entry.StoreBestMatch(st.version, res.best)
		j.done <- res
	}
}
