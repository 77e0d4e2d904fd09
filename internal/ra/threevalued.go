package ra

import "repro/internal/datagraph"

// This file implements Remark 2 of the paper: SQL's actual three-valued
// logic (true / false / unknown, with d = n and d ≠ n evaluating to
// unknown), and the claim that for data RPQ conditions the simpler
// two-valued treatment used everywhere else in this repository agrees:
// eval(c, σ) = true iff evalsql(c, σ) = true. Tests verify the equivalence
// by exhaustive enumeration.

// Truth is a three-valued logic value.
type Truth int8

const (
	// False3 is definite falsehood.
	False3 Truth = iota
	// Unknown3 is SQL's unknown.
	Unknown3
	// True3 is definite truth.
	True3
)

func (t Truth) String() string {
	switch t {
	case False3:
		return "false"
	case Unknown3:
		return "unknown"
	default:
		return "true"
	}
}

// and3 propagates unknown per SQL: unknown ∧ true = unknown,
// unknown ∧ false = false.
func and3(a, b Truth) Truth {
	if a < b {
		return a
	}
	return b
}

// or3: unknown ∨ false = unknown, unknown ∨ true = true.
func or3(a, b Truth) Truth {
	if a > b {
		return a
	}
	return b
}

// EvalSQL3 evaluates the condition under SQL's three-valued logic: atomic
// comparisons involving the null value are unknown; unknown propagates
// through ∧ and ∨ per the standard truth tables. Comparisons against unset
// registers are false (as in the two-valued evaluation; the paper
// excludes such conditions).
func EvalSQL3(c Cond, regs []datagraph.Value, set []bool, d datagraph.Value) Truth {
	switch t := c.(type) {
	case True:
		return True3
	case Eq:
		if !set[t.Reg] {
			return False3
		}
		if regs[t.Reg].IsNull() || d.IsNull() {
			return Unknown3
		}
		if regs[t.Reg] == d {
			return True3
		}
		return False3
	case Neq:
		if !set[t.Reg] {
			return False3
		}
		if regs[t.Reg].IsNull() || d.IsNull() {
			return Unknown3
		}
		if regs[t.Reg] != d {
			return True3
		}
		return False3
	case And:
		return and3(EvalSQL3(t.L, regs, set, d), EvalSQL3(t.R, regs, set, d))
	case Or:
		return or3(EvalSQL3(t.L, regs, set, d), EvalSQL3(t.R, regs, set, d))
	default:
		panic("ra: unknown condition node")
	}
}
