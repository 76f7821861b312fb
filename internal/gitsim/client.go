package gitsim

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"freehw/internal/license"
)

// Client is the scraper side of the curation framework. It discovers every
// Verilog repository despite the 1,000-result search cap by recursively
// splitting creation-date windows, optionally narrowing by license, and it
// honors rate-limit responses (§III-B "Solution 1").
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// PerPage is the page size used for search (max 100).
	PerPage int
	// MaxRetries bounds rate-limit retries per request.
	MaxRetries int

	// Metrics
	Requests    int64
	RateWaits   int64
	WindowSplit int64
}

// NewClient builds a client for a base URL (e.g. an httptest server).
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    strings.TrimRight(baseURL, "/"),
		HTTP:       &http.Client{Timeout: 30 * time.Second},
		PerPage:    MaxPerPage,
		MaxRetries: 50,
	}
}

// RepoMeta is discovered repository metadata.
type RepoMeta struct {
	FullName  string
	CreatedAt time.Time
	SPDX      string
	Stars     int
}

// RepoData is a downloaded repository.
type RepoData struct {
	Meta  RepoMeta
	Files []RepoFile
}

// get performs one API request with rate-limit retries.
func (c *Client) get(ctx context.Context, url string, out any) error {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return err
		}
		c.Requests++
		if resp.StatusCode == http.StatusForbidden {
			retry := resp.Header.Get("Retry-After")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if attempt >= c.MaxRetries {
				return fmt.Errorf("gitsim: rate limited after %d retries", attempt)
			}
			c.RateWaits++
			wait := 20 * time.Millisecond
			if secs, err := strconv.ParseFloat(retry, 64); err == nil && secs > 0 {
				wait = time.Duration(secs * float64(time.Second))
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return fmt.Errorf("gitsim: %s -> %d: %s", url, resp.StatusCode, body)
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close()
		return err
	}
}

// search runs one search query page.
func (c *Client) search(ctx context.Context, q string, page int) (*SearchResponse, error) {
	url := fmt.Sprintf("%s/search/repositories?q=%s&per_page=%d&page=%d",
		c.BaseURL, strings.ReplaceAll(q, " ", "+"), c.PerPage, page)
	var resp SearchResponse
	if err := c.get(ctx, url, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// countQuery returns only the total_count of a query.
func (c *Client) countQuery(ctx context.Context, q string) (int, error) {
	url := fmt.Sprintf("%s/search/repositories?q=%s&per_page=1&page=1",
		c.BaseURL, strings.ReplaceAll(q, " ", "+"))
	var resp SearchResponse
	if err := c.get(ctx, url, &resp); err != nil {
		return 0, err
	}
	return resp.TotalCount, nil
}

func dateQuery(base string, t0, t1 time.Time) string {
	return fmt.Sprintf("%s created:%s..%s", base, t0.Format("2006-01-02"), t1.Format("2006-01-02"))
}

// DiscoverRepos finds every repository matching baseQuery created within
// [t0, t1] by recursive window splitting; when a single day still exceeds
// the cap it further granularizes by license, mirroring the paper.
func (c *Client) DiscoverRepos(ctx context.Context, baseQuery string, t0, t1 time.Time) ([]RepoMeta, error) {
	found := map[string]RepoMeta{}
	if err := c.discover(ctx, baseQuery, t0, t1, found); err != nil {
		return nil, err
	}
	out := make([]RepoMeta, 0, len(found))
	for _, m := range found {
		out = append(out, m)
	}
	slices.SortFunc(out, func(a, b RepoMeta) int { return strings.Compare(a.FullName, b.FullName) })
	return out, nil
}

func (c *Client) discover(ctx context.Context, baseQuery string, t0, t1 time.Time, found map[string]RepoMeta) error {
	q := dateQuery(baseQuery, t0, t1)
	total, err := c.countQuery(ctx, q)
	if err != nil {
		return err
	}
	if total == 0 {
		return nil
	}
	if total > MaxSearchHits {
		if t1.Sub(t0) >= 48*time.Hour {
			// Split the window in half.
			c.WindowSplit++
			mid := t0.Add(t1.Sub(t0) / 2).Truncate(24 * time.Hour)
			if err := c.discover(ctx, baseQuery, t0, mid, found); err != nil {
				return err
			}
			return c.discover(ctx, baseQuery, mid.Add(24*time.Hour), t1, found)
		}
		// A single day over the cap: granularize by license.
		c.WindowSplit++
		for _, l := range license.AllAccepted() {
			lq := fmt.Sprintf("%s license:%s", q, strings.ToLower(string(l)))
			if err := c.drain(ctx, lq, found); err != nil {
				return err
			}
		}
		// Whatever remains (unlicensed or exotic) is unreachable past the
		// cap — drain what the API will give us.
		return c.drain(ctx, q, found)
	}
	return c.drain(ctx, q, found)
}

// drain pages through a query up to the API cap.
func (c *Client) drain(ctx context.Context, q string, found map[string]RepoMeta) error {
	for page := 1; (page-1)*c.PerPage < MaxSearchHits; page++ {
		resp, err := c.search(ctx, q, page)
		if err != nil {
			return err
		}
		for _, item := range resp.Items {
			spdx := ""
			if item.License != nil {
				spdx = item.License.SPDXID
			}
			found[item.FullName] = RepoMeta{
				FullName:  item.FullName,
				CreatedAt: item.CreatedAt,
				SPDX:      spdx,
				Stars:     item.Stars,
			}
		}
		if len(resp.Items) < c.PerPage || page*c.PerPage >= resp.TotalCount {
			return nil
		}
	}
	return nil
}

// Clone downloads a repository's files.
func (c *Client) Clone(ctx context.Context, fullName string) (*RepoData, error) {
	var contents RepoContents
	url := fmt.Sprintf("%s/repos/%s/contents-all", c.BaseURL, fullName)
	if err := c.get(ctx, url, &contents); err != nil {
		return nil, err
	}
	return &RepoData{
		Meta:  RepoMeta{FullName: fullName, SPDX: contents.License},
		Files: contents.Files,
	}, nil
}

// ScrapeVerilog is the end-to-end scrape the curation pipeline calls:
// discover every Verilog repository created in [t0,t1], clone each, and
// return the data. It mirrors Figure 1's "Scrape GitHub" stage.
func (c *Client) ScrapeVerilog(ctx context.Context, t0, t1 time.Time) ([]RepoData, error) {
	metas, err := c.DiscoverRepos(ctx, "language:verilog", t0, t1)
	if err != nil {
		return nil, err
	}
	out := make([]RepoData, 0, len(metas))
	for _, m := range metas {
		data, err := c.Clone(ctx, m.FullName)
		if err != nil {
			return nil, err
		}
		spdxFromClone := data.Meta.SPDX
		data.Meta = m
		if data.Meta.SPDX == "" {
			data.Meta.SPDX = spdxFromClone
		}
		out = append(out, *data)
	}
	return out, nil
}
