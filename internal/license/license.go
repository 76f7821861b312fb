// Package license implements the two licensing gates of the FreeSet
// curation framework (§III-C):
//
//  1. repository-level license classification — only repositories carrying
//     one of a fixed set of open-source licenses (permissive and
//     non-permissive) are eligible; unlicensed repositories fall in a legal
//     gray area and are excluded; and
//  2. file-level copyright screening — header comments are scanned for
//     combinations of language ("proprietary", "confidential", "all rights
//     reserved", explicit company copyright lines) indicating private
//     copyright, and such files are dropped even inside licensed repos.
package license

import (
	"strings"
)

// License identifies a recognized open-source license family.
type License string

// The accepted license set, mirroring the paper's list.
const (
	MIT        License = "MIT"
	Apache20   License = "Apache-2.0"
	GPL20      License = "GPL-2.0"
	GPL30      License = "GPL-3.0"
	LGPL       License = "LGPL"
	MPL20      License = "MPL-2.0"
	CC         License = "CC"
	EPL        License = "EPL"
	BSD2Clause License = "BSD-2-Clause"
	BSD3Clause License = "BSD-3-Clause"
	Unknown    License = ""
)

// Accepted reports whether l is in the curation framework's allow list.
func Accepted(l License) bool {
	switch l {
	case MIT, Apache20, GPL20, GPL30, LGPL, MPL20, CC, EPL, BSD2Clause, BSD3Clause:
		return true
	}
	return false
}

// AllAccepted lists the allow-listed licenses in a stable order.
func AllAccepted() []License {
	return []License{MIT, Apache20, GPL20, GPL30, LGPL, MPL20, CC, EPL, BSD2Clause, BSD3Clause}
}

// fingerprints are distinctive phrases from each license's text. LICENSE
// files are matched against these after normalization.
var fingerprints = []struct {
	l       License
	phrases []string
}{
	{MIT, []string{
		"permission is hereby granted, free of charge, to any person obtaining a copy",
		"mit license",
	}},
	{Apache20, []string{
		"apache license, version 2.0",
		"licensed under the apache license",
	}},
	{GPL30, []string{
		"gnu general public license as published by the free software foundation, either version 3",
		"gnu general public license version 3",
		"gplv3",
	}},
	{GPL20, []string{
		"gnu general public license as published by the free software foundation; either version 2",
		"gnu general public license version 2",
		"gplv2",
	}},
	{LGPL, []string{
		"gnu lesser general public license",
		"gnu library general public license",
	}},
	{MPL20, []string{
		"mozilla public license, v. 2.0",
		"mozilla public license version 2.0",
	}},
	{CC, []string{
		"creative commons",
		"cc by",
	}},
	{EPL, []string{
		"eclipse public license",
	}},
	{BSD3Clause, []string{
		"redistribution and use in source and binary forms, with or without modification, are permitted provided that the following conditions are met: 1. redistributions",
		"neither the name of",
		"bsd 3-clause",
		"bsd-3-clause",
	}},
	{BSD2Clause, []string{
		"redistribution and use in source and binary forms, with or without modification, are permitted",
		"bsd 2-clause",
		"bsd-2-clause",
	}},
}

// normalize lowercases ASCII letters and collapses whitespace runs
// ([\t\n\f\r ], the regexp \s class) to single spaces in one pass. It
// replaces the old spaceRe.ReplaceAllString(strings.ToLower(text), " ")
// pipeline, which allocated twice and ran the regexp engine over every
// header the curation funnel screens. Non-ASCII bytes pass through
// untouched (ToLower would re-encode invalid UTF-8 as U+FFFD; we don't) —
// no indicator or fingerprint contains cased non-ASCII letters or either
// byte form, so match results are identical.
func normalize(text string) string {
	var sb strings.Builder
	sb.Grow(len(text))
	pendingSpace := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch c {
		case ' ', '\t', '\n', '\f', '\r':
			pendingSpace = true
		default:
			if pendingSpace {
				sb.WriteByte(' ')
				pendingSpace = false
			}
			if c >= 'A' && c <= 'Z' {
				c |= 0x20
			}
			sb.WriteByte(c)
		}
	}
	if pendingSpace {
		sb.WriteByte(' ')
	}
	return sb.String()
}

// Classify identifies the license of a LICENSE file's text. It returns
// Unknown when no fingerprint matches.
func Classify(text string) License {
	n := normalize(text)
	for _, fp := range fingerprints {
		for _, p := range fp.phrases {
			if strings.Contains(n, p) {
				return fp.l
			}
		}
	}
	return Unknown
}

// ClassifySPDX maps an SPDX-style identifier (as GitHub's API reports) to a
// License. Unrecognized identifiers map to Unknown.
func ClassifySPDX(id string) License {
	switch strings.ToUpper(strings.TrimSpace(id)) {
	case "MIT":
		return MIT
	case "APACHE-2.0":
		return Apache20
	case "GPL-2.0", "GPL-2.0-ONLY", "GPL-2.0-OR-LATER":
		return GPL20
	case "GPL-3.0", "GPL-3.0-ONLY", "GPL-3.0-OR-LATER":
		return GPL30
	case "LGPL-2.1", "LGPL-2.1-ONLY", "LGPL-2.1-OR-LATER", "LGPL-3.0", "LGPL-3.0-ONLY", "LGPL-3.0-OR-LATER":
		return LGPL
	case "MPL-2.0":
		return MPL20
	case "CC-BY-4.0", "CC-BY-SA-4.0", "CC0-1.0":
		return CC
	case "EPL-1.0", "EPL-2.0":
		return EPL
	case "BSD-2-CLAUSE":
		return BSD2Clause
	case "BSD-3-CLAUSE":
		return BSD3Clause
	}
	return Unknown
}
