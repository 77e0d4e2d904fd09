package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func fixtures(t *testing.T) (graph, mapping string) {
	t.Helper()
	dir := t.TempDir()
	graph = writeFile(t, dir, "gs.txt", `
node ann 30
node bob 25
node p1 hello
edge ann knows bob
edge ann likes p1
edge bob likes p1
`)
	mapping = writeFile(t, dir, "m.txt", `
rule knows -> f f
rule likes -> l
`)
	return graph, mapping
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

func TestCLIUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"eval"},
		{"solve"},
		{"certain"},
		{"classify"},
		{"check"},
		{"eval", "-graph", "missing.txt", "-query", "a"},
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

func TestCLIEval(t *testing.T) {
	graph, _ := fixtures(t)
	out, err := runCLI(t, "eval", "-graph", graph, "-query", "knows", "-lang", "rpq")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ann") || !strings.Contains(out, "bob") {
		t.Fatalf("output: %s", out)
	}
	// REE with data test.
	out2, err := runCLI(t, "eval", "-graph", graph, "-query", "(likes)=")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out2) != "" {
		t.Fatalf("(likes)= should be empty: %s", out2)
	}
	// GXPath node expression.
	out3, err := runCLI(t, "eval", "-graph", graph, "-query", "<knows>", "-lang", "gxnode")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out3, "ann") {
		t.Fatalf("gxnode output: %s", out3)
	}
	// Bad mode.
	if _, err := runCLI(t, "eval", "-graph", graph, "-query", "a", "-mode", "weird"); err == nil {
		t.Fatal("bad mode should fail")
	}
	// Bad language.
	if _, err := runCLI(t, "eval", "-graph", graph, "-query", "a", "-lang", "sparql"); err == nil {
		t.Fatal("bad lang should fail")
	}
}

func TestCLISolve(t *testing.T) {
	graph, mapping := fixtures(t)
	out, err := runCLI(t, "solve", "-graph", graph, "-mapping", mapping)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "null") {
		t.Fatalf("universal solution should contain a null node:\n%s", out)
	}
	out2, err := runCLI(t, "solve", "-graph", graph, "-mapping", mapping, "-style", "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out2, "null") {
		t.Fatalf("least informative solution should not contain nulls:\n%s", out2)
	}
	if _, err := runCLI(t, "solve", "-graph", graph, "-mapping", mapping, "-style", "bogus"); err == nil {
		t.Fatal("bad style should fail")
	}
}

func TestCLICertain(t *testing.T) {
	graph, mapping := fixtures(t)
	for _, algo := range []string{"null", "exact", "least"} {
		out, err := runCLI(t, "certain", "-graph", graph, "-mapping", mapping,
			"-query", "f f", "-algo", algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out, "ann") || !strings.Contains(out, "1 certain answers") {
			t.Fatalf("%s output: %s", algo, out)
		}
	}
	out, err := runCLI(t, "certain", "-graph", graph, "-mapping", mapping,
		"-query", "(f f)!=", "-algo", "oneneq", "-from", "ann", "-to", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "= true") {
		t.Fatalf("oneneq output: %s", out)
	}
	if _, err := runCLI(t, "certain", "-graph", graph, "-mapping", mapping,
		"-query", "f", "-algo", "bogus"); err == nil {
		t.Fatal("bad algo should fail")
	}
	if _, err := runCLI(t, "certain", "-graph", graph, "-mapping", mapping,
		"-query", "f", "-algo", "oneneq"); err == nil {
		t.Fatal("oneneq without -from/-to should fail")
	}
}

func TestCLICertainParallel(t *testing.T) {
	graph, mapping := fixtures(t)
	for _, algo := range []string{"null", "least"} {
		want, err := runCLI(t, "certain", "-graph", graph, "-mapping", mapping,
			"-query", "f f", "-algo", algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		got, err := runCLI(t, "certain", "-graph", graph, "-mapping", mapping,
			"-query", "f f", "-algo", algo, "-workers", "4")
		if err != nil {
			t.Fatalf("%s -workers 4: %v", algo, err)
		}
		if got != want {
			t.Fatalf("%s: -workers 4 output %q differs from the default %q", algo, got, want)
		}
	}
}

func TestCLICertainMultiQuery(t *testing.T) {
	graph, mapping := fixtures(t)
	out, err := runCLI(t, "certain", "-graph", graph, "-mapping", mapping,
		"-query", "f f", "-query", "l")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "## query 1: f f") || !strings.Contains(out, "## query 2: l") {
		t.Fatalf("multi-query output should be sectioned per query:\n%s", out)
	}
	if strings.Count(out, "certain answers") != 2 {
		t.Fatalf("want two answer counts:\n%s", out)
	}
}

func TestCLIExitCodes(t *testing.T) {
	graph, mapping := fixtures(t)
	dir := t.TempDir()
	nonRel := writeFile(t, dir, "nonrel.txt", "rule knows -> f*\n")
	bigGraph := writeFile(t, dir, "big.txt", `
node a 1
node b 2
node c 3
edge a knows b
edge b knows c
`)
	cases := []struct {
		args []string
		want int
	}{
		// Bad option value: negative workers.
		{[]string{"certain", "-graph", graph, "-mapping", mapping,
			"-query", "f", "-maxnulls", "-1"}, 2},
		// Exact-search budget exceeded (two knows-pairs, two nulls).
		{[]string{"certain", "-graph", bigGraph, "-mapping", mapping,
			"-query", "f", "-algo", "exact", "-maxnulls", "1"}, 3},
		// Non-relational mapping: no finite solution.
		{[]string{"solve", "-graph", graph, "-mapping", nonRel}, 4},
		// Plain usage error.
		{[]string{"bogus"}, 1},
	}
	for _, c := range cases {
		_, err := runCLI(t, c.args...)
		if err == nil {
			t.Errorf("args %v should fail", c.args)
			continue
		}
		if got := exitCode(err); got != c.want {
			t.Errorf("args %v: exit code %d, want %d (err: %v)", c.args, got, c.want, err)
		}
	}
}

func TestCLIConj(t *testing.T) {
	graph, mapping := fixtures(t)
	// Direct evaluation.
	out, err := runCLI(t, "conj", "-graph", graph,
		"-query", "ans(x, y) :- x -[knows]-> y, x -[likes]-> w, y -[likes]-> w")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ann") || !strings.Contains(out, "# 1 answers") {
		t.Fatalf("conj output: %s", out)
	}
	// Certain-answer mode.
	out2, err := runCLI(t, "conj", "-graph", graph, "-mapping", mapping,
		"-query", "ans(x, y) :- x -[f f]-> y")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "bob") || !strings.Contains(out2, "# 1 answers") {
		t.Fatalf("conj certain output: %s", out2)
	}
	// Errors.
	if _, err := runCLI(t, "conj", "-graph", graph); err == nil {
		t.Fatal("missing query should fail")
	}
	if _, err := runCLI(t, "conj", "-graph", graph, "-query", "nonsense"); err == nil {
		t.Fatal("bad query should fail")
	}
}

func TestCLINonempty(t *testing.T) {
	out, err := runCLI(t, "nonempty", "-query", "(a b)=")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "nonempty; witness:") {
		t.Fatalf("output: %s", out)
	}
	out2, err := runCLI(t, "nonempty", "-query", "(a=)!=")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "empty") {
		t.Fatalf("output: %s", out2)
	}
	out3, err := runCLI(t, "nonempty", "-lang", "rem", "-query", "!x.(a[x!=])+")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out3, "nonempty") {
		t.Fatalf("output: %s", out3)
	}
	for _, bad := range [][]string{
		{"nonempty"},
		{"nonempty", "-query", "(("},
		{"nonempty", "-lang", "rem", "-query", "!x"},
		{"nonempty", "-lang", "zz", "-query", "a"},
	} {
		if _, err := runCLI(t, bad...); err == nil {
			t.Errorf("args %v should fail", bad)
		}
	}
}

func TestCLIClassifyAndCheck(t *testing.T) {
	graph, mapping := fixtures(t)
	out, err := runCLI(t, "classify", "-mapping", mapping)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "LAV:                      true") ||
		!strings.Contains(out, "relational:               true") {
		t.Fatalf("classify output: %s", out)
	}
	// A valid solution: solve then check.
	dir := t.TempDir()
	sol, err := runCLI(t, "solve", "-graph", graph, "-mapping", mapping)
	if err != nil {
		t.Fatal(err)
	}
	target := writeFile(t, dir, "gt.txt", sol)
	out2, err := runCLI(t, "check", "-source", graph, "-target", target, "-mapping", mapping)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2, "solution") || strings.Contains(out2, "not a solution") {
		t.Fatalf("check output: %s", out2)
	}
	// A broken target.
	broken := writeFile(t, dir, "bad.txt", "node ann 30\n")
	out3, err := runCLI(t, "check", "-source", graph, "-target", broken, "-mapping", mapping)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out3, "not a solution") {
		t.Fatalf("check output: %s", out3)
	}
}
