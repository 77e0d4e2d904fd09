package ra

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagraph"
)

// sameEndsAt is (a)= testing register r: the registers below r are never
// used, but the configurations are 2+r+1 wide.
func sameEndsAt(r int) *Automaton {
	b := &Builder{}
	s0, s1, s2, s3 := b.State(), b.State(), b.State(), b.State()
	b.Eps(s0, s1, True{}, []int{r})
	b.Letter(s1, s2, "a", false, True{}, nil)
	b.Eps(s2, s3, Eq{Reg: r}, nil)
	return b.Finish(s0, s3)
}

// registerChain stores the data values of a path of k any-label steps in
// k registers, then takes one more step whose value must equal the first
// and differ from the last stored — or repeat the middle one.
func registerChain(k int) *Automaton {
	b := &Builder{}
	s := b.State()
	start := s
	next := b.State()
	b.Eps(s, next, True{}, []int{0})
	for r := 1; r < k; r++ {
		s, next = next, b.State()
		b.Letter(s, next, "", true, True{}, []int{r})
	}
	accept := b.State()
	b.Letter(next, accept, "", true, Or{L: And{L: Eq{Reg: 0}, R: Neq{Reg: k - 1}}, R: Eq{Reg: k / 2}}, nil)
	return b.Finish(start, accept)
}

// kernelInputs are scratchInputs plus automata wider than any fixed-size
// configuration: 10 and 13 registers.
func kernelInputs(t *testing.T) map[string]*Automaton {
	in := scratchInputs(t)
	in["(a)="] = buildSameEnds(false)
	in["(a)≠"] = buildSameEnds(true)
	in["register 9"] = sameEndsAt(9)
	in["10 registers"] = registerChain(10)
	in["13 registers"] = registerChain(13)
	return in
}

var modes = []datagraph.CompareMode{datagraph.MarkedNulls, datagraph.SQLNulls}

func TestKernelAgreesWithOracle(t *testing.T) {
	in := kernelInputs(t)
	answered := map[string]bool{}
	for seed := int64(0); seed < 6; seed++ {
		g := valuedGraph(seed, 12, 15)
		for name, a := range in {
			for _, mode := range modes {
				got, want := a.Eval(g, mode), oracleEval(a, g, mode)
				if !got.Equal(want) {
					t.Fatalf("seed %d, %s, %v: kernel %v, oracle %v", seed, name, mode, got.Sorted(), want.Sorted())
				}
				answered[name] = answered[name] || got.Len() > 0
			}
		}
	}
	for name := range in {
		if !answered[name] {
			t.Errorf("%s: no answers on any graph, nothing compared", name)
		}
	}
}

func TestMatchDataPathAgreesWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := kernelInputs(t)
	for i := 0; i < 300; i++ {
		n := rng.Intn(15)
		vals := make([]datagraph.Value, n+1)
		labels := make([]string, n)
		for j := range vals {
			vals[j] = datagraph.V(fmt.Sprint(rng.Intn(3)))
			if rng.Intn(6) == 0 {
				vals[j] = datagraph.Null()
			}
			if j < n {
				labels[j] = []string{"a", "b"}[rng.Intn(2)]
			}
		}
		w := datagraph.NewDataPath(vals, labels)
		for name, a := range in {
			for _, mode := range modes {
				if got, want := a.MatchDataPath(w, mode), oracleMatch(a, w, mode); got != want {
					t.Fatalf("%s, %v, %v: kernel %v, oracle %v", name, w, mode, got, want)
				}
			}
		}
	}
}
