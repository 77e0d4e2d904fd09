// Package core implements the paper's primary contribution: graph schema
// mappings over data graphs (Section 4), solution building (Sections 7-8)
// and certain-answer computation (Sections 5-8).
//
// A graph schema mapping (GSM) M is a set of pairs of RPQs (q, q′) with q
// over the source alphabet and q′ over the target alphabet; a target graph
// Gt is a solution for Gs when q(Gs) ⊆ q′(Gt) for every rule — where the
// pairs are pairs of *nodes* (id, value), so both ids and data values must
// be reproduced in the target (Definition 1).
package core

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/datagraph"
	"repro/internal/rpq"
)

// Rule is a mapping rule (q, q′).
type Rule struct {
	Source *rpq.Query
	Target *rpq.Query
}

func (r Rule) String() string {
	return fmt.Sprintf("%s -> %s", r.Source.String(), r.Target.String())
}

// Mapping is a graph schema mapping: a finite set of rules.
type Mapping struct {
	Rules []Rule
}

// NewMapping builds a mapping from rules.
func NewMapping(rules ...Rule) *Mapping { return &Mapping{Rules: rules} }

// R is a convenience constructor parsing both sides in rex syntax.
func R(source, target string) Rule {
	return Rule{Source: rpq.MustParse(source), Target: rpq.MustParse(target)}
}

// IsLAV reports whether every source query is atomic (a single letter),
// the local-as-view restriction used in virtual data integration (§4).
func (m *Mapping) IsLAV() bool {
	for _, r := range m.Rules {
		if r.Source.Kind() != rpq.KindAtomic {
			return false
		}
	}
	return true
}

// IsGAV reports whether every target query is atomic (global-as-view).
func (m *Mapping) IsGAV() bool {
	for _, r := range m.Rules {
		if r.Target.Kind() != rpq.KindAtomic {
			return false
		}
	}
	return true
}

// IsRelational reports whether every target query is a word RPQ
// (Definition 3) — the class for which solutions can be built and query
// answering is decidable (Section 6).
func (m *Mapping) IsRelational() bool {
	for _, r := range m.Rules {
		if _, ok := r.Target.AsWord(); !ok {
			return false
		}
	}
	return true
}

// IsRelationalReachability reports whether every target query is a word RPQ
// or the reachability query Σ* — the minimal non-relational extension for
// which Theorem 1 proves undecidability.
func (m *Mapping) IsRelationalReachability() bool {
	for _, r := range m.Rules {
		if _, ok := r.Target.AsWord(); ok {
			continue
		}
		if r.Target.Kind() == rpq.KindReachability {
			continue
		}
		return false
	}
	return true
}

// SourceLabels returns the labels used by source queries, sorted.
func (m *Mapping) SourceLabels() []string {
	set := map[string]struct{}{}
	for _, r := range m.Rules {
		for _, l := range labelsOf(r.Source) {
			set[l] = struct{}{}
		}
	}
	return sortedKeys(set)
}

// TargetLabels returns the labels used by target queries, sorted.
func (m *Mapping) TargetLabels() []string {
	set := map[string]struct{}{}
	for _, r := range m.Rules {
		for _, l := range labelsOf(r.Target) {
			set[l] = struct{}{}
		}
	}
	return sortedKeys(set)
}

func labelsOf(q *rpq.Query) []string {
	return rexLabels(q)
}

// Satisfies reports whether (Gs, Gt) ⊨ M: for each rule, every pair of
// source nodes in q(Gs) appears — same ids, same data values — as a pair in
// q′(Gt).
func (m *Mapping) Satisfies(gs, gt *datagraph.Graph) bool {
	ok, _ := m.Check(gs, gt)
	return ok
}

// Check is Satisfies with an explanation of the first violation found.
func (m *Mapping) Check(gs, gt *datagraph.Graph) (bool, string) {
	for _, r := range m.Rules {
		src := r.Source.Eval(gs)
		var tgt *datagraph.PairSet
		for _, p := range src.Sorted() {
			un := gs.Node(p.From)
			vn := gs.Node(p.To)
			ui, ok := gt.IndexOf(un.ID)
			if !ok {
				return false, fmt.Sprintf("rule %s: node %s missing from target", r, un.ID)
			}
			vi, ok := gt.IndexOf(vn.ID)
			if !ok {
				return false, fmt.Sprintf("rule %s: node %s missing from target", r, vn.ID)
			}
			if gt.Node(ui).Value != un.Value {
				return false, fmt.Sprintf("rule %s: node %s has value %s in target, want %s",
					r, un.ID, gt.Node(ui).Value, un.Value)
			}
			if gt.Node(vi).Value != vn.Value {
				return false, fmt.Sprintf("rule %s: node %s has value %s in target, want %s",
					r, vn.ID, gt.Node(vi).Value, vn.Value)
			}
			if tgt == nil {
				tgt = r.Target.Eval(gt)
			}
			if !tgt.Has(ui, vi) {
				return false, fmt.Sprintf("rule %s: pair (%s, %s) not connected in target", r, un.ID, vn.ID)
			}
		}
	}
	return true, ""
}

// String renders the mapping in the text format accepted by ParseMapping.
func (m *Mapping) String() string {
	var b strings.Builder
	for _, r := range m.Rules {
		fmt.Fprintf(&b, "rule %s\n", r)
	}
	return b.String()
}

// ParseMapping reads a mapping in the line-based format:
//
//	# comment
//	rule <source rpq> -> <target rpq>
//
// Both sides use rex concrete syntax.
func ParseMapping(r io.Reader) (*Mapping, error) {
	m := &Mapping{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		body, found := strings.CutPrefix(line, "rule ")
		if !found {
			return nil, fmt.Errorf("core: line %d: expected 'rule <src> -> <tgt>'", lineNo)
		}
		parts := strings.SplitN(body, "->", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("core: line %d: missing '->'", lineNo)
		}
		src, err := rpq.Parse(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("core: line %d: source: %w", lineNo, err)
		}
		tgt, err := rpq.Parse(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, fmt.Errorf("core: line %d: target: %w", lineNo, err)
		}
		m.Rules = append(m.Rules, Rule{Source: src, Target: tgt})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(m.Rules) == 0 {
		return nil, fmt.Errorf("core: mapping has no rules")
	}
	return m, nil
}

// ParseMappingString is ParseMapping over a string.
func ParseMappingString(s string) (*Mapping, error) {
	return ParseMapping(strings.NewReader(s))
}
