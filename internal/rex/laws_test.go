package rex

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/ra"
)

// Algebraic laws of regular languages, verified through DFA equivalence on
// a fixed alphabet — these exercise determinization, complement and
// intersection together. The product, emptiness and witness searches below
// exist only as this oracle.

func dfaOf(t *testing.T, expr string, alpha []string) *ra.DFA {
	t.Helper()
	return Compile(MustParse(expr)).Determinize(alpha)
}

// intersect returns the product DFA recognising L(d) ∩ L(e). Both automata
// must have the same alphabet.
func intersect(d, e *ra.DFA) (*ra.DFA, error) {
	if !slices.Equal(d.Alphabet, e.Alphabet) {
		return nil, fmt.Errorf("rex: intersect requires identical alphabets: %v vs %v", d.Alphabet, e.Alphabet)
	}
	cols := len(d.Alphabet) + 1
	type pair struct{ a, b int }
	ids := map[pair]int{{0, 0}: 0}
	order := []pair{{0, 0}}
	out := &ra.DFA{Alphabet: slices.Clone(d.Alphabet)}
	out.Trans = append(out.Trans, make([]int, cols))
	out.Accepts = append(out.Accepts, d.Accepts[0] && e.Accepts[0])
	for i := 0; i < len(order); i++ {
		p := order[i]
		for c := 0; c < cols; c++ {
			np := pair{d.Trans[p.a][c], e.Trans[p.b][c]}
			id, ok := ids[np]
			if !ok {
				id = len(order)
				ids[np] = id
				order = append(order, np)
				out.Trans = append(out.Trans, make([]int, cols))
				out.Accepts = append(out.Accepts, d.Accepts[np.a] && e.Accepts[np.b])
			}
			out.Trans[i][c] = id
		}
	}
	return out, nil
}

// empty reports whether the DFA accepts no word.
func empty(d *ra.DFA) bool {
	_, ok := someWord(d)
	return !ok
}

// someWord returns a shortest accepted word, rendering the Other column as
// "·".
func someWord(d *ra.DFA) ([]string, bool) {
	type entry struct {
		state int
		word  []string
	}
	seen := make([]bool, len(d.Trans))
	queue := []entry{{0, nil}}
	seen[0] = true
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		if d.Accepts[e.state] {
			return e.word, true
		}
		for c, nx := range d.Trans[e.state] {
			if seen[nx] {
				continue
			}
			seen[nx] = true
			label := "·"
			if c < len(d.Alphabet) {
				label = d.Alphabet[c]
			}
			queue = append(queue, entry{nx, append(slices.Clone(e.word), label)})
		}
	}
	return nil, false
}

// equivalent reports whether d and e accept the same language over the
// shared alphabet ∪ Other universe.
func equivalent(d, e *ra.DFA) (bool, error) {
	de, err := intersect(d, e.Complement())
	if err != nil {
		return false, err
	}
	ed, err := intersect(e, d.Complement())
	if err != nil {
		return false, err
	}
	return empty(de) && empty(ed), nil
}

func assertequivalent(t *testing.T, alpha []string, e1, e2 string) {
	t.Helper()
	eq, err := equivalent(dfaOf(t, e1, alpha), dfaOf(t, e2, alpha))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("expected %q ≡ %q over %v", e1, e2, alpha)
	}
}

func assertDistinct(t *testing.T, alpha []string, e1, e2 string) {
	t.Helper()
	eq, err := equivalent(dfaOf(t, e1, alpha), dfaOf(t, e2, alpha))
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Errorf("expected %q ≢ %q over %v", e1, e2, alpha)
	}
}

func TestLawStarIdempotent(t *testing.T) {
	alpha := []string{"a", "b"}
	assertequivalent(t, alpha, "(a*)*", "a*")
	assertequivalent(t, alpha, "(a|b)*", "((a|b)*)*")
}

func TestLawPlusStarRelations(t *testing.T) {
	alpha := []string{"a"}
	assertequivalent(t, alpha, "a+", "a a*")
	assertequivalent(t, alpha, "a*", "()|a+")
	assertequivalent(t, alpha, "a?", "()|a")
}

func TestLawUnionCommutativeAssociative(t *testing.T) {
	alpha := []string{"a", "b", "c"}
	assertequivalent(t, alpha, "a|b|c", "c|b|a")
	assertequivalent(t, alpha, "(a|b)|c", "a|(b|c)")
	assertequivalent(t, alpha, "a|a", "a")
}

func TestLawConcatDistributes(t *testing.T) {
	alpha := []string{"a", "b", "c"}
	assertequivalent(t, alpha, "a (b|c)", "a b|a c")
	assertequivalent(t, alpha, "(a|b) c", "a c|b c")
}

func TestLawEpsilonIdentity(t *testing.T) {
	alpha := []string{"a"}
	assertequivalent(t, alpha, "() a", "a")
	assertequivalent(t, alpha, "a ()", "a")
	assertequivalent(t, alpha, "()*", "()")
}

func TestLawDeMorganViaComplement(t *testing.T) {
	alpha := []string{"a", "b"}
	a := dfaOf(t, "a (a|b)*", alpha)
	b := dfaOf(t, "(a|b)* b", alpha)
	// ¬(A ∪ B) = ¬A ∩ ¬B via explicit automata.
	union, err := intersect(a.Complement(), b.Complement())
	if err != nil {
		t.Fatal(err)
	}
	// Build A ∪ B as ¬(¬A ∩ ¬B) and check equivalence with the syntactic
	// union.
	syntactic := dfaOf(t, "a (a|b)*|(a|b)* b", alpha)
	eq, err := equivalent(union.Complement(), syntactic)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("De Morgan failed")
	}
}

func TestLawDistinctLanguages(t *testing.T) {
	alpha := []string{"a", "b"}
	assertDistinct(t, alpha, "a*", "a+")
	assertDistinct(t, alpha, "a b", "b a")
	assertDistinct(t, alpha, "a", "a a")
}

// Kleene-algebra sanity: (ab)*a ≡ a(ba)*.
func TestLawSlidingRule(t *testing.T) {
	assertequivalent(t, []string{"a", "b"}, "(a b)* a", "a (b a)*")
}

// Complement really is with respect to the padded universe Σ ∪ {Other}:
// the complement of Σ* over alphabet {a} still rejects everything.
func TestComplementUniverse(t *testing.T) {
	alpha := []string{"a"}
	full := dfaOf(t, ".*", alpha)
	none := full.Complement()
	if !empty(none) {
		t.Fatal("complement of Σ* must be empty")
	}
	if w, ok := someWord(none); ok {
		t.Fatalf("empty language yielded %v", w)
	}
}
