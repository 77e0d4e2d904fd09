package repro_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target). Good enough for the
// docs in this repo; reference-style links are not used here.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// mdName matches a markdown file named in code quotes, like `CHANGES.md`:
// the way the docs cite a document without linking it. Patterns (`docs/*.md`)
// are not names.
var mdName = regexp.MustCompile("`([^`\\s*<>]+\\.md)`")

// TestDocsLinks verifies that every local markdown link in README.md and
// docs/*.md, and every markdown file they name in code quotes, points at a
// file that exists, so the documentation layer cannot silently rot as files
// move. CI runs this via `make docs-check` (it is also part of the ordinary
// test suite).
func TestDocsLinks(t *testing.T) {
	files := []string{"README.md"}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	if len(files) < 4 {
		t.Fatalf("expected README.md plus at least 3 files under docs/, got %v", files)
	}

	checked := 0
	for _, f := range files {
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
			// Drop any fragment; a bare "#anchor" links within the same file.
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(f), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken local link %q (resolved to %s): %v", f, m[1], resolved, err)
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
