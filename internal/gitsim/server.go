// Package gitsim simulates the GitHub REST API surface the paper's dataset
// curation framework depends on (§III-B): repository search with the
// 1,000-results-per-query cap that forces date-range and license query
// granularization, repository content download, and rate limiting. The
// server serves a deterministic corpus.World; the client implements the
// scraping strategy described in the paper.
package gitsim

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"freehw/internal/corpus"
	"freehw/internal/license"
)

// API limits mirroring GitHub's search API for non-enterprise accounts.
const (
	MaxPerPage    = 100
	MaxSearchHits = 1000 // only the first 1,000 results are retrievable
)

// SearchItem is one repository search result.
type SearchItem struct {
	FullName  string       `json:"full_name"`
	CreatedAt time.Time    `json:"created_at"`
	License   *LicenseInfo `json:"license"`
	Stars     int          `json:"stargazers_count"`
}

// LicenseInfo mirrors GitHub's license object.
type LicenseInfo struct {
	SPDXID string `json:"spdx_id"`
}

// SearchResponse is the search endpoint's body.
type SearchResponse struct {
	TotalCount        int          `json:"total_count"`
	IncompleteResults bool         `json:"incomplete_results"`
	Items             []SearchItem `json:"items"`
}

// RepoFile is one file of a repository download.
type RepoFile struct {
	Path    string `json:"path"`
	Content string `json:"content"`
}

// RepoContents is the contents endpoint's body.
type RepoContents struct {
	FullName string     `json:"full_name"`
	License  string     `json:"license"`
	Files    []RepoFile `json:"files"`
}

// Server serves a corpus.World over the simulated API.
type Server struct {
	world  *corpus.World
	byName map[string]int // full name -> 1 + the index of the first repository of that name
	mux    *http.ServeMux

	mu        sync.Mutex
	rateLimit int // requests per window; 0 = unlimited
	window    time.Duration
	windowEnd time.Time
	used      int

	// metrics
	SearchCalls   int64
	ContentsCalls int64
	Throttled     int64
}

// NewServer builds a server over the world. rateLimit requests are allowed
// per window (0 disables throttling).
func NewServer(world *corpus.World, rateLimit int, window time.Duration) *Server {
	s := &Server{world: world, byName: make(map[string]int, len(world.Repos)), rateLimit: rateLimit, window: window}
	for i := range world.Repos {
		if full := world.Repos[i].FullName(); s.byName[full] == 0 {
			s.byName[full] = i + 1
		}
	}
	if s.window <= 0 {
		s.window = 50 * time.Millisecond
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/search/repositories", s.handleSearch)
	s.mux.HandleFunc("/repos/", s.handleRepo)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.allow() {
		s.mu.Lock()
		s.Throttled++
		retry := time.Until(s.windowEnd)
		s.mu.Unlock()
		if retry < 0 {
			retry = 0
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%.3f", retry.Seconds()))
		w.Header().Set("X-RateLimit-Remaining", "0")
		http.Error(w, `{"message":"API rate limit exceeded"}`, http.StatusForbidden)
		return
	}
	s.mux.ServeHTTP(w, r)
}

// allow implements a fixed-window rate limiter.
func (s *Server) allow() bool {
	if s.rateLimit <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if now.After(s.windowEnd) {
		s.windowEnd = now.Add(s.window)
		s.used = 0
	}
	if s.used >= s.rateLimit {
		return false
	}
	s.used++
	return true
}

// query is the parsed form of a search query string.
type query struct {
	language   string
	created0   time.Time
	created1   time.Time
	license    string // SPDX id filter, "" = any
	hasCreated bool
}

// parseQuery parses GitHub search syntax: "language:verilog created:A..B
// license:mit".
func parseQuery(q string) (query, error) {
	out := query{}
	for _, field := range strings.Fields(q) {
		switch {
		case strings.HasPrefix(field, "language:"):
			out.language = strings.ToLower(strings.TrimPrefix(field, "language:"))
		case strings.HasPrefix(field, "license:"):
			out.license = strings.ToLower(strings.TrimPrefix(field, "license:"))
		case strings.HasPrefix(field, "created:"):
			span := strings.TrimPrefix(field, "created:")
			parts := strings.SplitN(span, "..", 2)
			if len(parts) != 2 {
				return out, fmt.Errorf("bad created range %q", span)
			}
			t0, err := time.Parse("2006-01-02", parts[0])
			if err != nil {
				return out, err
			}
			t1, err := time.Parse("2006-01-02", parts[1])
			if err != nil {
				return out, err
			}
			out.created0, out.created1 = t0, t1
			out.hasCreated = true
		}
	}
	return out, nil
}

// spdxOf renders the repo license as a lowercase SPDX id.
func spdxOf(l license.License) string {
	return strings.ToLower(string(l))
}

// matches reports whether repo satisfies the query. Repositories "contain
// Verilog" when they hold at least one .v file.
func matches(q query, r *corpus.Repo) bool {
	if q.language == "verilog" {
		hasV := false
		for _, f := range r.Files {
			if strings.HasSuffix(f.Path, ".v") {
				hasV = true
				break
			}
		}
		if !hasV {
			return false
		}
	}
	if q.hasCreated {
		if r.CreatedAt.Before(q.created0) || !r.CreatedAt.Before(q.created1.Add(24*time.Hour)) {
			return false
		}
	}
	if q.license != "" && spdxOf(r.License) != q.license {
		return false
	}
	return true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.SearchCalls++
	s.mu.Unlock()
	q, err := parseQuery(r.URL.Query().Get("q"))
	if err != nil {
		http.Error(w, `{"message":"validation failed"}`, http.StatusUnprocessableEntity)
		return
	}
	perPage, _ := strconv.Atoi(r.URL.Query().Get("per_page"))
	if perPage <= 0 || perPage > MaxPerPage {
		perPage = 30
	}
	page, _ := strconv.Atoi(r.URL.Query().Get("page"))
	if page <= 0 {
		page = 1
	}

	var hits []SearchItem
	for i := range s.world.Repos {
		repo := &s.world.Repos[i]
		if !matches(q, repo) {
			continue
		}
		item := SearchItem{
			FullName:  repo.FullName(),
			CreatedAt: repo.CreatedAt,
			Stars:     repo.Stars,
		}
		if repo.License != license.Unknown {
			item.License = &LicenseInfo{SPDXID: string(repo.License)}
		}
		hits = append(hits, item)
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].FullName < hits[j].FullName })

	resp := SearchResponse{TotalCount: len(hits)}
	start := (page - 1) * perPage
	end := start + perPage
	// The crucial GitHub behavior: results beyond the first 1,000 are
	// unreachable no matter the paging.
	if end > MaxSearchHits {
		end = MaxSearchHits
	}
	if start > len(hits) {
		start = len(hits)
	}
	if end > len(hits) {
		end = len(hits)
	}
	if start < end {
		resp.Items = hits[start:end]
	}
	resp.IncompleteResults = resp.TotalCount > MaxSearchHits
	writeJSON(w, resp)
}

func (s *Server) handleRepo(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.ContentsCalls++
	s.mu.Unlock()
	// Path: /repos/{owner}/{name}/contents-all
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/repos/"), "/")
	if len(parts) != 3 || parts[2] != "contents-all" {
		http.Error(w, `{"message":"not found"}`, http.StatusNotFound)
		return
	}
	full := parts[0] + "/" + parts[1]
	i := s.byName[full]
	if i == 0 {
		http.Error(w, `{"message":"not found"}`, http.StatusNotFound)
		return
	}
	repo := &s.world.Repos[i-1]
	out := RepoContents{FullName: full, License: string(repo.License)}
	if repo.LicenseFile != "" {
		out.Files = append(out.Files, RepoFile{Path: "LICENSE", Content: repo.LicenseFile})
	}
	for _, f := range repo.Files {
		out.Files = append(out.Files, RepoFile{Path: f.Path, Content: f.Content})
	}
	writeJSON(w, out)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
