package datagraph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Parse reads a data graph from the line-based text format produced by
// Graph.String:
//
//	# comment
//	node <id> <value>
//	node <id> null
//	edge <from> <label> <to>
//
// Fields are whitespace-separated; blank lines and lines starting with '#'
// are ignored. Edges may reference nodes declared later in the file. Every
// rejection is a *ParseError.
func Parse(r io.Reader) (*Graph, error) {
	g := New()
	type pendingEdge struct {
		from, label, to string
		line            int
	}
	var pending []pendingEdge
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 3 {
				return nil, &ParseError{lineNo, errors.New("want 'node <id> <value>'")}
			}
			v := V(fields[2])
			if fields[2] == "null" {
				v = Null()
			}
			if err := g.AddNode(NodeID(fields[1]), v); err != nil {
				return nil, &ParseError{lineNo, err}
			}
		case "edge":
			if len(fields) != 4 {
				return nil, &ParseError{lineNo, errors.New("want 'edge <from> <label> <to>'")}
			}
			pending = append(pending, pendingEdge{fields[1], fields[2], fields[3], lineNo})
		default:
			return nil, &ParseError{lineNo, fmt.Errorf("unknown directive %q", fields[0])}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, &ParseError{lineNo + 1, err}
	}
	for _, e := range pending {
		if err := g.AddEdge(NodeID(e.from), e.label, NodeID(e.to)); err != nil {
			return nil, &ParseError{e.line, err}
		}
	}
	return g, nil
}

// ParseError is a line of graph text that Parse rejects, with the reason.
type ParseError struct {
	Line int
	Err  error
}

func (e *ParseError) Error() string { return fmt.Sprintf("datagraph: line %d: %v", e.Line, e.Err) }

func (e *ParseError) Unwrap() error { return e.Err }

// ParseString is Parse over a string.
func ParseString(s string) (*Graph, error) { return Parse(strings.NewReader(s)) }
