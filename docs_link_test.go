package repro_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// mdLink matches inline markdown links [text](target). Good enough for the
// docs in this repo; reference-style links are not used here.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// mdName matches a markdown file named in code quotes, like `CHANGES.md`:
// the way the docs cite a document without linking it. Patterns (`docs/*.md`)
// are not names.
var mdName = regexp.MustCompile("`([^`\\s*<>]+\\.md)`")

// mdCode matches a fenced code block or an inline code span.
var mdCode = regexp.MustCompile("(?s)```.*?```|`[^`\n]+`")

// facadeName matches an exported name of the facade package, like
// repro.Compile, and captures the name.
var facadeName = regexp.MustCompile(`\brepro\.([A-Z]\w*)`)

// makeTarget matches a make invocation in command position — at the start
// of a code span or line, or after && or ; — and captures the target, so
// prose such as a shell comment mentioning "make targets" is not one.
// Flags (make -C dir) are not targets.
var makeTarget = regexp.MustCompile("(?m)(?:^|`|&&|;)[ \t]*(?:\\$[ \t]+)?make[ \t]+([a-z][\\w-]*)")

// makefileRule matches a rule line of the Makefile and captures its
// target; special targets such as .PHONY start with a dot and do not match.
var makefileRule = regexp.MustCompile(`(?m)^([\w-]+):`)

// mdHeading matches an ATX heading line and captures its text.
var mdHeading = regexp.MustCompile(`^#{1,6}\s+(.*?)\s*#*\s*$`)

// headingSlug is GitHub's anchor for a heading: lowercase, punctuation
// other than '-' and spaces dropped (letters, digits and '_' survive), then
// every space becomes '-'. "Overload & resource governance" is therefore
// "overload--resource-governance".
func headingSlug(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r == ' ':
			b.WriteByte('-')
		case r == '-' || unicode.IsLetter(r) || unicode.IsMark(r) ||
			unicode.IsNumber(r) || unicode.Is(unicode.Pc, r):
			b.WriteRune(r)
		}
	}
	return b.String()
}

// anchors returns the heading slugs of a markdown document. Lines inside
// fenced code blocks are not headings, so shell comments in a walkthrough
// do not count.
func anchors(doc string) map[string]bool {
	out := map[string]bool{}
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") || strings.HasPrefix(trimmed, "~~~") {
			fenced = !fenced
			continue
		}
		if m := mdHeading.FindStringSubmatch(line); m != nil && !fenced {
			out[headingSlug(m[1])] = true
		}
	}
	return out
}

// TestDocsLinks verifies that every local markdown link in README.md and
// docs/*.md, and every markdown file they name in code quotes, points at a
// file that exists, and that every #fragment names a heading of its target,
// so the documentation layer cannot silently rot as files and sections
// move. CI runs this via `make docs-check` (it is also part of the ordinary
// test suite).
func TestDocsLinks(t *testing.T) {
	checked := 0
	for _, f := range docFiles(t) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(b), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			// A bare "#anchor" links within the same file.
			target, frag, _ := strings.Cut(target, "#")
			resolved := f
			if target != "" {
				resolved = filepath.Join(filepath.Dir(f), target)
			}
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken local link %q (resolved to %s): %v", f, m[1], resolved, err)
				continue
			}
			if frag != "" {
				tb, err := os.ReadFile(resolved)
				if err != nil {
					t.Fatal(err)
				}
				if !anchors(string(tb))[frag] {
					t.Errorf("%s: link %q names no heading of %s", f, m[1], resolved)
				}
			}
			checked++
		}
		// A quoted name is read from the file's directory or, as the docs
		// cite root-level documents, from the repository root.
		for _, m := range mdName.FindAllStringSubmatch(string(b), -1) {
			_, errHere := os.Stat(filepath.Join(filepath.Dir(f), m[1]))
			_, errRoot := os.Stat(m[1])
			if errHere != nil && errRoot != nil {
				t.Errorf("%s: names `%s`, which does not exist", f, m[1])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no local links found across README.md and docs/ — the check is vacuous")
	}
}

// TestDocsFacadeNames verifies that every exported facade name README.md
// and docs/*.md quote in code — an inline `repro.Compile`, or a call in a
// fenced example — is part of the public surface recorded in api.txt, so
// removing or renaming a public symbol fails the build until the docs stop
// citing it.
func TestDocsFacadeNames(t *testing.T) {
	api, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	public := map[string]bool{}
	for _, line := range strings.Split(string(api), "\n") {
		kind, decl, ok := strings.Cut(line, " ")
		if !ok || kind == "method" {
			continue
		}
		name, _, _ := strings.Cut(decl, "(") // func Name(...) ...
		name, _, _ = strings.Cut(name, " ")  // type Name = alias
		public[name] = true
	}
	cited := 0
	for _, f := range docFiles(t) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range mdCode.FindAllString(string(b), -1) {
			for _, m := range facadeName.FindAllStringSubmatch(code, -1) {
				if !public[m[1]] {
					t.Errorf("%s: cites repro.%s, which api.txt does not list", f, m[1])
				}
				cited++
			}
		}
	}
	if cited == 0 {
		t.Fatal("no facade names found across README.md and docs/ — the check is vacuous")
	}
}

// TestDocsMakeTargets verifies that every make invocation README.md and
// docs/*.md quote in code — an inline `make ci`, or a line of a fenced
// shell block — names a target the Makefile defines, so deleting or
// renaming a target fails the build until the docs stop citing it.
func TestDocsMakeTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makefileRule.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	cited := 0
	for _, f := range docFiles(t) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range mdCode.FindAllString(string(b), -1) {
			for _, m := range makeTarget.FindAllStringSubmatch(code, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: cites make %s, which the Makefile does not define", f, m[1])
				}
				cited++
			}
		}
	}
	if cited == 0 {
		t.Fatal("no make targets found across README.md and docs/ — the check is vacuous")
	}
}

// docFiles returns README.md and every markdown file under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files := append([]string{"README.md"}, docs...)
	if len(files) < 4 {
		t.Fatalf("expected README.md plus at least 3 files under docs/, got %v", files)
	}
	return files
}
