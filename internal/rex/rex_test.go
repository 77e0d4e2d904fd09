package rex

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datagraph"
	"repro/internal/ra"
)

// accepts runs the automaton on word as a data path of null values, so only
// the labels decide.
func accepts(a *ra.Automaton, word []string) bool {
	vals := make([]datagraph.Value, len(word)+1)
	for i := range vals {
		vals[i] = datagraph.Null()
	}
	return a.MatchDataPath(datagraph.NewDataPath(vals, word), datagraph.MarkedNulls)
}

func match(t *testing.T, expr string, word ...string) bool {
	t.Helper()
	e, err := Parse(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	return accepts(Compile(e), word)
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "|a", "a|", "(", ")", "(a", "*", "a))", "a^b", "a | | b"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, expr := range []string{
		"a", "a b", "a|b", "(a|b) c", "a*", "a+", "a?", ".", ".*",
		"()", "(a b)*", "a (b|c)+ d", "a|b|c", "knows* likes",
	} {
		e, err := Parse(expr)
		if err != nil {
			t.Fatalf("parse %q: %v", expr, err)
		}
		e2, err := Parse(e.String())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", e.String(), expr, err)
		}
		if e.String() != e2.String() {
			t.Errorf("round trip: %q -> %q -> %q", expr, e.String(), e2.String())
		}
	}
}

func TestBasicMatching(t *testing.T) {
	cases := []struct {
		expr string
		word []string
		want bool
	}{
		{"a", []string{"a"}, true},
		{"a", []string{"b"}, false},
		{"a", []string{}, false},
		{"()", []string{}, true},
		{"()", []string{"a"}, false},
		{"a b", []string{"a", "b"}, true},
		{"a b", []string{"a"}, false},
		{"a|b", []string{"b"}, true},
		{"a|b", []string{"c"}, false},
		{"a*", []string{}, true},
		{"a*", []string{"a", "a", "a"}, true},
		{"a*", []string{"a", "b"}, false},
		{"a+", []string{}, false},
		{"a+", []string{"a"}, true},
		{"a?", []string{}, true},
		{"a?", []string{"a"}, true},
		{"a?", []string{"a", "a"}, false},
		{".", []string{"anything"}, true},
		{".", []string{}, false},
		{".*", []string{}, true},
		{".*", []string{"x", "y", "z"}, true},
		{"(a b)*", []string{"a", "b", "a", "b"}, true},
		{"(a b)*", []string{"a", "b", "a"}, false},
		{"a (b|c)+ d", []string{"a", "b", "c", "b", "d"}, true},
		{"a (b|c)+ d", []string{"a", "d"}, false},
	}
	for _, c := range cases {
		if got := match(t, c.expr, c.word...); got != c.want {
			t.Errorf("match(%q, %v) = %v, want %v", c.expr, c.word, got, c.want)
		}
	}
}

func TestMultiCharLabels(t *testing.T) {
	if !match(t, "knows friend_of", "knows", "friend_of") {
		t.Fatal("multi-char labels should work")
	}
	if match(t, "knows", "kno") {
		t.Fatal("prefix of label must not match")
	}
}

func TestWordAndReachabilityHelpers(t *testing.T) {
	w := Word("a", "b", "c")
	if got, ok := IsWord(w); !ok || !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("IsWord(Word(a,b,c)) = %v, %v", got, ok)
	}
	if _, ok := IsWord(MustParse("a*")); ok {
		t.Fatal("a* is not a word")
	}
	if got, ok := IsWord(Word()); !ok || len(got) != 0 {
		t.Fatal("empty Word should be the empty word")
	}
	if !IsReachability(Reachability()) {
		t.Fatal("Reachability() not recognised")
	}
	if !IsReachability(MustParse(".*")) {
		t.Fatal(".* should be reachability")
	}
	if IsReachability(MustParse("a*")) {
		t.Fatal("a* is not reachability")
	}
}

func TestLabels(t *testing.T) {
	e := MustParse("a (b|c)+ . a*")
	if got := Labels(e); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Labels = %v", got)
	}
}

func TestNFAEmptyAndSomeWord(t *testing.T) {
	if !Compile(MustParse("a")).Nonempty() {
		t.Fatal("a is nonempty")
	}
	a := Compile(MustParse("a b|c"))
	w, ok := a.SomeDataPath()
	if !ok {
		t.Fatal("expected a witness word")
	}
	if !accepts(a, w.Labels) {
		t.Fatalf("witness %v not accepted", w)
	}
	if w2, ok := Compile(MustParse("()")).SomeDataPath(); !ok || len(w2.Labels) != 0 {
		t.Fatalf("epsilon witness = %v, %v", w2, ok)
	}
}

func TestDeterminizeAgreesWithNFA(t *testing.T) {
	exprs := []string{"a", "a b", "a|b", "a*", "(a b)* c?", "a (b|c)+", ".* a .*", ". . ."}
	alpha := []string{"a", "b", "c"}
	words := [][]string{
		{}, {"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "a"}, {"a", "b", "c"},
		{"a", "a"}, {"c", "c", "c"}, {"a", "b", "a", "b"}, {"z"}, {"a", "z", "b"},
	}
	for _, expr := range exprs {
		a := Compile(MustParse(expr))
		d := a.Determinize(alpha)
		for _, w := range words {
			if accepts(a, w) != d.Matches(w) {
				t.Errorf("expr %q word %v: automaton %v, DFA %v", expr, w, accepts(a, w), d.Matches(w))
			}
		}
	}
}

func TestComplement(t *testing.T) {
	d := Compile(MustParse("a*")).Determinize([]string{"a", "b"})
	c := d.Complement()
	for _, w := range [][]string{{}, {"a"}, {"a", "a"}, {"b"}, {"a", "b"}} {
		if d.Matches(w) == c.Matches(w) {
			t.Errorf("complement agrees on %v", w)
		}
	}
}

func TestIntersectAndEquivalence(t *testing.T) {
	alpha := []string{"a", "b"}
	d1 := Compile(MustParse("a* b")).Determinize(alpha)
	d2 := Compile(MustParse(". . | b")).Determinize(alpha)
	in, err := intersect(d1, d2)
	if err != nil {
		t.Fatal(err)
	}
	// a* b ∩ (..|b) = {b, ab}
	for _, c := range []struct {
		w    []string
		want bool
	}{
		{[]string{"b"}, true},
		{[]string{"a", "b"}, true},
		{[]string{"a", "a", "b"}, false},
		{[]string{"a"}, false},
	} {
		if got := in.Matches(c.w); got != c.want {
			t.Errorf("intersection on %v = %v, want %v", c.w, got, c.want)
		}
	}
	// (a|b)* ≡ .* over alphabet {a,b}... NOT equivalent because .* also
	// accepts out-of-alphabet labels (the Other column).
	e1 := Compile(MustParse("(a|b)*")).Determinize(alpha)
	e2 := Compile(MustParse(".*")).Determinize(alpha)
	eq, err := equivalent(e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("(a|b)* must differ from .* on out-of-alphabet words")
	}
	// But a|b ≡ b|a.
	f1 := Compile(MustParse("a|b")).Determinize(alpha)
	f2 := Compile(MustParse("b|a")).Determinize(alpha)
	eq, err = equivalent(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("a|b should equal b|a")
	}
	// Mismatched alphabets error.
	g := Compile(MustParse("a")).Determinize([]string{"a"})
	if _, err := intersect(d1, g); err == nil {
		t.Fatal("intersect with mismatched alphabets must fail")
	}
}

func TestDFAEmptyAndSomeWord(t *testing.T) {
	alpha := []string{"a"}
	d := Compile(MustParse("a")).Determinize(alpha)
	dead, err := intersect(d, d.Complement())
	if err != nil {
		t.Fatal(err)
	}
	if !empty(dead) {
		t.Fatal("L ∩ ¬L must be empty")
	}
	if _, ok := someWord(dead); ok {
		t.Fatal("empty language has no witness")
	}
	w, ok := someWord(d)
	if !ok || !d.Matches(w) {
		t.Fatalf("witness %v, ok=%v", w, ok)
	}
}

// Property: for random simple expressions, the DFA and the automaton agree
// on random words.
func TestQuickNFADFAAgreement(t *testing.T) {
	alpha := []string{"a", "b"}
	gen := func(seed uint16) string {
		// Tiny expression grammar driven by seed bits.
		parts := []string{"a", "b", "a|b", "a*", "b+", "(a b)?", "."}
		s1 := parts[int(seed)%len(parts)]
		s2 := parts[int(seed/7)%len(parts)]
		switch (seed / 49) % 3 {
		case 0:
			return s1 + " " + s2
		case 1:
			return "(" + s1 + ")|(" + s2 + ")"
		default:
			return "(" + s1 + " " + s2 + ")*"
		}
	}
	f := func(seed uint16, wordBits uint8, wordLen uint8) bool {
		expr := gen(seed)
		a := Compile(MustParse(expr))
		d := a.Determinize(alpha)
		l := int(wordLen % 6)
		word := make([]string, l)
		for i := 0; i < l; i++ {
			if wordBits&(1<<i) != 0 {
				word[i] = "a"
			} else {
				word[i] = "b"
			}
		}
		return accepts(a, word) == d.Matches(word)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: complement of complement is the original language (tested via
// Equivalent).
func TestQuickDoubleComplement(t *testing.T) {
	alpha := []string{"a", "b"}
	exprs := []string{"a", "a b", "a|b*", "(a|b)*", "a+ b?", ".*"}
	for _, expr := range exprs {
		d := Compile(MustParse(expr)).Determinize(alpha)
		eq, err := equivalent(d, d.Complement().Complement())
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("¬¬L ≠ L for %q", expr)
		}
	}
}

func TestUnicodeLabelRunes(t *testing.T) {
	// The PCP gadget uses ↔ and # as labels.
	e, err := Parse("t ↔ #")
	if err != nil {
		t.Fatal(err)
	}
	if !accepts(Compile(e), []string{"t", "↔", "#"}) {
		t.Fatal("unicode separator labels should parse and match")
	}
}

func TestStringGrouping(t *testing.T) {
	// Union nested under concat must parenthesise on render.
	e := Concat{Factors: []Regex{Lit{"a"}, Union{Alts: []Regex{Lit{"b"}, Lit{"c"}}}}}
	s := e.String()
	if !strings.Contains(s, "(") {
		t.Fatalf("expected grouping in %q", s)
	}
	if MustParse(s).String() != s {
		t.Fatalf("render of %q unstable", s)
	}
}
