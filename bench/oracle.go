package main

import (
	"encoding/json"
	"fmt"

	"freehw/internal/similarity"
)

// verdict is the part of an audit answer the output check compares: the
// best match's name, its score bit for bit, and the violation flag.
type verdict struct {
	Name      string
	Score     float64
	Violation bool
	NoMatch   bool
}

func (v verdict) String() string {
	if v.NoMatch {
		return "no_match"
	}
	return fmt.Sprintf("%s score=%v violation=%v", v.Name, v.Score, v.Violation)
}

// oracle answers audits offline through similarity.Corpus, the entry point
// the paper's §III-A benchmark uses, never through the code under test's
// serving path.
type oracle struct{ c *similarity.Corpus }

func newOracle(names, texts []string) *oracle {
	return &oracle{similarity.NewCorpus(names, texts)}
}

func verdictOf(m similarity.Match) verdict {
	if m.Index < 0 {
		return verdict{NoMatch: true}
	}
	return verdict{Name: m.Name, Score: m.Score, Violation: m.Score >= similarity.DefaultThreshold}
}

func (o *oracle) verdict(code string) verdict { return verdictOf(o.c.Best(code)) }

// wireVerdict is the subset of serve.AuditResponse and
// serve.AuditBatchResult the check reads. The score survives the JSON
// round trip exactly: the server writes the shortest decimal that parses
// back to the same float64.
type wireVerdict struct {
	Best *struct {
		Name  string  `json:"name"`
		Score float64 `json:"score"`
	} `json:"best"`
	Violation bool `json:"violation"`
	NoMatch   bool `json:"no_match"`
}

func (w wireVerdict) verdict() verdict {
	if w.Best == nil {
		return verdict{NoMatch: w.NoMatch}
	}
	return verdict{Name: w.Best.Name, Score: w.Best.Score, Violation: w.Violation, NoMatch: w.NoMatch}
}

// parseAudit decodes a /v1/audit response body.
func parseAudit(body []byte) (verdict, error) {
	var w wireVerdict
	if err := json.Unmarshal(body, &w); err != nil {
		return verdict{}, err
	}
	return w.verdict(), nil
}

type batchResponse struct {
	Results       []wireVerdict `json:"results"`
	CorpusVersion uint64        `json:"corpus_version"`
	CorpusLen     int           `json:"corpus_len"`
}

// codeOfAuditBody recovers the candidate from a generated /v1/audit body.
func codeOfAuditBody(body []byte) string {
	var req struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		panic(err) // the generator wrote it
	}
	return req.Code
}

// checkVerdicts compares what the server answered with the oracle, one
// problem per mismatch, and returns the number of mismatches.
func checkVerdicts(r *runResult, o *oracle, codes []string, got []verdict) int {
	bad := 0
	for i, code := range codes {
		if want := o.verdict(code); got[i] != want {
			bad++
			r.problem(fmt.Sprintf("verdict mismatch on sampled candidate %d: server said %v, offline oracle says %v", i, got[i], want))
		}
	}
	return bad
}
