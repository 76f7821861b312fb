package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"time"

	"freehw/internal/corpus"
	"freehw/internal/gitsim"
)

// sizing fixes how much data each workload moves. The full sizes are the
// ones README.md's spreads were measured at; -smoke and the unit tests
// shrink them so every code path still runs in about a second.
type sizing struct {
	baseDocs    int     // protected documents in the served corpus
	poolSize    int     // audit_resample's candidate pool
	zipfS       float64 // audit_resample's skew
	nearDupPct  int     // share of cold candidates that are a mutated protected file
	batch       int     // candidates per /v1/audit/batch request
	deltaDocs   int     // documents added (and removed) per delta publish
	publishRate float64 // open-loop delta publishes per second
	worldScale  float64 // curate_offline's corpus.BuildWorld scale
	setups      int     // set-up repetitions; setup_s is their median
	restarts    int     // SIGTERM/relaunch cycles after publish_mixed
	warmup      time.Duration
	coldPerSec  int // cold candidates pre-encoded per window second
}

func fullSizing() sizing {
	return sizing{
		baseDocs: 8000, poolSize: 2048, zipfS: 1.2, nearDupPct: 10,
		batch: 16, deltaDocs: 16, publishRate: 20, worldScale: 1.0,
		setups: 3, restarts: 3, warmup: 2 * time.Second, coldPerSec: 3500,
	}
}

func smokeSizing() sizing {
	return sizing{
		baseDocs: 400, poolSize: 64, zipfS: 1.2, nearDupPct: 10,
		batch: 16, deltaDocs: 16, publishRate: 20, worldScale: 0.05,
		setups: 1, restarts: 1, warmup: 200 * time.Millisecond, coldPerSec: 6000,
	}
}

// Sub-stream ids keep every generated input a pure function of (-seed, id),
// so adding a stream never shifts another.
const (
	streamBase = iota + 1
	streamCold
	streamPool
	streamZipf
	streamDelta
	streamWorld
)

func subRand(seed int64, stream, lane int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*1009 + int64(lane)))
}

// baseCorpus is the protected reference corpus every workload audits
// against.
func baseCorpus(seed int64, n int) (names, texts []string) {
	pf := corpus.BuildProtectedCorpus(seed*1_000_003+streamBase, n)
	names = make([]string, len(pf))
	texts = make([]string, len(pf))
	for i, p := range pf {
		names[i], texts[i] = p.Name, p.Source
	}
	return names, texts
}

// mutateLine replaces one line of a protected file, the paper's Figure 3
// regurgitation band: the copy still scores far above the 0.8 threshold.
func mutateLine(rng *rand.Rand, src string) string {
	lines := strings.Split(src, "\n")
	lines[rng.Intn(len(lines))] = fmt.Sprintf("  // local edit %d", rng.Int63())
	return strings.Join(lines, "\n")
}

// coldStream yields candidates that are pairwise distinct, so the server's
// verdict memo never hits: nearDupPct% mutated protected files, the rest
// novel modules. The trailing tag makes two equal generated modules differ
// in bytes without changing what they share with the corpus.
type coldStream struct {
	rng        *rand.Rand
	base       []string
	nearDupPct int
	lane, n    int
	nearDup    bool // whether the last candidate was a mutated protected file
}

func newColdStream(seed int64, lane int, base []string, nearDupPct int) *coldStream {
	return &coldStream{rng: subRand(seed, streamCold, lane), base: base, nearDupPct: nearDupPct, lane: lane}
}

func (s *coldStream) next() string {
	var code string
	s.nearDup = s.rng.Intn(100) < s.nearDupPct
	if s.nearDup {
		code = mutateLine(s.rng, s.base[s.rng.Intn(len(s.base))])
	} else {
		code = corpus.Generate(s.rng, "", false).Source
	}
	s.n++
	return fmt.Sprintf("%s\n// cand %d.%d\n", code, s.lane, s.n)
}

// candidatePool is audit_resample's fixed working set, far smaller than the
// verdict cache's budget.
func candidatePool(seed int64, size int, base []string, nearDupPct int) []string {
	s := &coldStream{rng: subRand(seed, streamPool, 0), base: base, nearDupPct: nearDupPct, lane: 9}
	pool := make([]string, size)
	for i := range pool {
		pool[i] = s.next()
	}
	return pool
}

// auditBody is the /v1/audit request for one candidate.
func auditBody(code string) []byte {
	b, err := json.Marshal(struct {
		Code string `json:"code"`
	}{code})
	if err != nil {
		panic(err) // a string always marshals
	}
	return b
}

// batchBody is the /v1/audit/batch request for the candidates.
func batchBody(codes []string) []byte {
	type cand struct {
		Key  string `json:"key"`
		Code string `json:"code"`
	}
	req := struct {
		Candidates []cand `json:"candidates"`
	}{Candidates: make([]cand, len(codes))}
	for i, c := range codes {
		req.Candidates[i] = cand{Key: fmt.Sprint(i), Code: c}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

type doc struct {
	Name string `json:"name"`
	Text string `json:"text"`
}

// publishBody is a /v1/corpus request: mode "" replaces, "delta" appends
// docs as one segment and tombstones remove.
func publishBody(mode string, docs []doc, remove []string) []byte {
	b, err := json.Marshal(struct {
		Mode      string   `json:"mode,omitempty"`
		Documents []doc    `json:"documents,omitempty"`
		Remove    []string `json:"remove,omitempty"`
	}{mode, docs, remove})
	if err != nil {
		panic(err)
	}
	return b
}

func docsOf(names, texts []string) []doc {
	out := make([]doc, len(names))
	for i := range names {
		out[i] = doc{names[i], texts[i]}
	}
	return out
}

// deltaStream yields delta publish k: per mutated protected files added, and
// the documents delta k-1 added removed, so the live corpus stays at its
// base size while segments, tombstones and merges churn.
type deltaStream struct {
	rng  *rand.Rand
	base []string
	lane int
	per  int
	k    int
	prev []string
}

// newDeltaStream starts delta stream lane; streams of different lanes use
// disjoint document names.
func newDeltaStream(seed int64, lane int, base []string, per int) *deltaStream {
	return &deltaStream{rng: subRand(seed, streamDelta, lane), base: base, lane: lane, per: per}
}

func (s *deltaStream) next() (docs []doc, remove []string) {
	docs = make([]doc, s.per)
	names := make([]string, s.per)
	for j := range docs {
		names[j] = fmt.Sprintf("delta%d_%05d_%02d.v", s.lane, s.k, j)
		docs[j] = doc{names[j], mutateLine(s.rng, s.base[s.rng.Intn(len(s.base))])}
	}
	remove, s.prev = s.prev, names
	s.k++
	return docs, remove
}

// scrapeWorld builds the simulated GitHub world and scrapes it through the
// in-process gitsim API, the way core.New does. The scrape itself is not a
// measured layer (README.md, "not covered").
func scrapeWorld(seed int64, scale float64) ([]gitsim.RepoData, error) {
	cfg := corpus.DefaultConfig(scale)
	cfg.Seed = seed*1_000_003 + streamWorld
	ts := httptest.NewServer(gitsim.NewServer(corpus.BuildWorld(cfg), 0, 50*time.Millisecond))
	defer ts.Close()
	repos, err := gitsim.NewClient(ts.URL).ScrapeVerilog(context.Background(),
		time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		return nil, fmt.Errorf("scrape simulated world: %w", err)
	}
	return repos, nil
}
