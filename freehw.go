// Package freehw is a from-scratch Go reproduction of "Free and Fair
// Hardware: A Pathway to Copyright Infringement-Free Verilog Generation
// using LLMs" (DAC 2025).
//
// It re-exports the experiment-facing API; the implementation lives in the
// internal packages (README "Architecture" has the full inventory):
//
//   - internal/vlog    — Verilog lexer/parser (the curation syntax filter)
//   - internal/vsim    — event-driven 4-state Verilog simulator
//   - internal/veval   — VerilogEval-style functional benchmark + pass@k
//   - internal/corpus  — deterministic synthetic Verilog world
//   - internal/gitsim  — simulated GitHub API (server + scraping client)
//   - internal/license — license classifier + copyright screening
//   - internal/dedup   — MinHash/LSH de-duplication
//   - internal/similarity — cosine-similarity copyright benchmark
//   - internal/tokenizer, internal/lm, internal/training — the LM substrate
//   - internal/curation — the FreeSet funnel
//   - internal/core    — end-to-end orchestration of every experiment
//
// cmd/repro is the one command that prints the paper's tables and figures
// (a golden pins its output); examples/quickstart drives this package.
package freehw

import (
	"freehw/internal/core"
)

// Config configures a full experiment; see core.Config.
type Config = core.Config

// Experiment is a fully assembled reproduction environment.
type Experiment = core.Experiment

// ModelSpec declares one model of the Figure-3 zoo.
type ModelSpec = core.ModelSpec

// Zoo is a trained model set.
type Zoo = core.Zoo

// DefaultConfig returns the flagship experiment configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultZoo returns the Figure-3 model set.
func DefaultZoo() []ModelSpec { return core.DefaultZoo() }

// New builds the world, scrapes it, and runs the curation pipelines.
func New(cfg Config) (*Experiment, error) { return core.New(cfg) }
