package serve

import (
	"net/http"
	"strconv"

	"freehw/internal/failpoint"
	"freehw/internal/similarity"
	"freehw/internal/vcache"
)

// Admission: a request that scores or parses runs on its own handler
// goroutine once it holds a slot of a semaphore — s.admit for /v1/audit,
// s.bulk for /v1/audit/batch, /v1/filter, /v1/syntax and /v1/scan. A full
// semaphore sheds the request with 429 + Retry-After at once instead of
// stacking goroutines, latency or memory.

// auditResult carries the verdict plus the snapshot generation that
// produced it.
type auditResult struct {
	best    similarity.Match
	matches []similarity.Match
	version uint64
	length  int
}

// claim takes a slot of sem without waiting and then fires the failpoint
// fp. It replies and reports false when every slot is taken (429 with
// shedCode) or fp injects a fault (500, the slot released again); on true
// the caller owns the slot and must release it with <-sem.
func (s *Server) claim(w http.ResponseWriter, sem chan struct{}, fp, shedCode, shedMsg string) bool {
	select {
	case sem <- struct{}{}:
	default:
		s.writeShed(w, sem, shedCode, shedMsg)
		return false
	}
	if err := failpoint.Inject(fp); err != nil {
		<-sem // an injected fault must not leak the slot
		writeErr(w, http.StatusInternalServerError, "internal", err.Error())
		return false
	}
	return true
}

// decodeBulk is decode for a request that parses, scans or scores what it
// was posted. It takes a bulkhead slot before it reads a byte of the body,
// so a request the bulkhead sheds costs no body, and replies when it
// refuses the request; on true the caller releases the slot with <-s.bulk.
func (s *Server) decodeBulk(w http.ResponseWriter, r *http.Request, out any) bool {
	if !allow(w, r, http.MethodPost) ||
		!s.claim(w, s.bulk, FPBulkAdmit, "bulk_full", "too many in-flight bulk requests") {
		return false
	}
	if !s.decode(w, r, out) {
		<-s.bulk
		return false
	}
	return true
}

// batchFits answers a batch (batch audit, filter) with no candidates or
// more than the cap, and reports whether it holds neither.
func (s *Server) batchFits(w http.ResponseWriter, candidates int) bool {
	if candidates == 0 {
		writeErr(w, http.StatusBadRequest, "empty_batch", "no candidates")
		return false
	}
	if candidates > s.cfg.MaxBatchCandidates {
		writeErr(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			"batch of "+strconv.Itoa(candidates)+" exceeds the "+strconv.Itoa(s.cfg.MaxBatchCandidates)+"-candidate limit")
		return false
	}
	return true
}

// score audits one candidate against the current snapshot on the calling
// goroutine: the best match when k <= 1, else the top k. The verdict lands
// in the content-hash memo under the snapshot version that produced it.
// In /v1/stats a single audit is one scoring pass of one candidate.
//
//freehw:hotpath
func (s *Server) score(text string, k int, key vcache.Key) auditResult {
	st := s.current()
	s.m.batches.Add(1)
	s.m.batchedJobs.Add(1)
	res := auditResult{version: st.version, length: st.snap.Len()}
	if k <= 1 {
		res.best = st.snap.Best(text)
	} else {
		// Clamp client-controlled k: TopK pre-allocates its heap at
		// capacity k, and nothing beyond the corpus size can match anyway.
		res.matches = st.snap.TopK(text, min(k, res.length))
		res.best = similarity.Match{Index: -1}
		if len(res.matches) > 0 {
			res.best = res.matches[0]
		}
	}
	s.store.StoreBestMatch(key, st.version, res.best.Index, res.best.Score)
	return res
}
