// Command gsm is the command-line front end to the graph-schema-mapping
// library: it evaluates queries on data graphs, builds solutions, computes
// certain answers, and classifies mappings. It is built entirely on the
// public session API of the repro facade: the certain and solve paths open
// one repro.Session per invocation and run every requested query/solution
// against its memoized artifacts.
//
// Usage:
//
//	gsm eval     -graph g.txt -query "(a b)=" [-lang ree|rem|rpq|gxnode] [-mode marked|sql]
//	gsm solve    -graph gs.txt -mapping m.txt [-style null|fresh]
//	gsm certain  -graph gs.txt -mapping m.txt -query Q [-query Q2 ...]
//	             [-lang ree|rem|rpq] [-algo null|exact|least|oneneq]
//	             [-from X -to Y] [-workers N] [-maxnulls N] [-timeout D]
//	gsm classify -mapping m.txt
//	gsm check    -source gs.txt -target gt.txt -mapping m.txt
//	gsm conj     -graph g.txt -query "ans(x,y) :- x -[a]-> z, z -[b=]-> y"
//	             [-mapping m.txt]   (certain-answer mode when given)
//	gsm ingest   -schema s.txt [-dir d] [table=file.csv ...] [-o g.txt]
//	             | -sqlite db.sqlite [-schema s.txt] [-o g.txt]
//	             [-batch N] [-skip-bad-rows] [-progress]
//	gsm genrel   -dir out [-customers N -products N -orders N -seed S]
//	             [-sqlite out.sqlite]
//
// Errors exit with distinct codes by kind, dispatched on the facade's typed
// sentinels: 2 invalid options, 3 search budget exceeded, 4 no/infinite
// solution, 5 canceled or timed out, 1 anything else.
//
// Graphs use the datagraph text format (node/edge lines); mappings use the
// core text format (rule src -> tgt lines).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gsm:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode maps the facade's typed sentinel errors to distinct process exit
// codes, so scripts dispatch on $? instead of parsing messages.
func exitCode(err error) int {
	switch {
	case errors.Is(err, repro.ErrBadOptions):
		return 2
	case errors.Is(err, repro.ErrBudgetExceeded):
		return 3
	case errors.Is(err, repro.ErrInfinite), errors.Is(err, repro.ErrNoSolution):
		return 4
	case errors.Is(err, repro.ErrCanceled):
		return 5
	}
	return 1
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: gsm <eval|solve|certain|classify|check|conj|nonempty|ingest|genrel> [flags]")
	}
	switch args[0] {
	case "eval":
		return cmdEval(args[1:], out)
	case "solve":
		return cmdSolve(args[1:], out)
	case "certain":
		return cmdCertain(args[1:], out)
	case "classify":
		return cmdClassify(args[1:], out)
	case "check":
		return cmdCheck(args[1:], out)
	case "conj":
		return cmdConj(args[1:], out)
	case "nonempty":
		return cmdNonempty(args[1:], out)
	case "ingest":
		return cmdIngest(args[1:], out)
	case "genrel":
		return cmdGenRel(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func loadGraph(path string) (*repro.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return repro.ParseGraph(string(data))
}

func loadMapping(path string) (*repro.Mapping, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return repro.ParseMapping(string(data))
}

// openSession loads the graph and mapping and opens the one session shared
// by everything the invocation asks for.
func openSession(graphPath, mappingPath string, opts ...repro.Option) (*repro.Session, error) {
	gs, err := loadGraph(graphPath)
	if err != nil {
		return nil, err
	}
	m, err := loadMapping(mappingPath)
	if err != nil {
		return nil, err
	}
	cm, err := repro.Compile(m)
	if err != nil {
		return nil, err
	}
	return repro.NewSession(cm, gs, opts...)
}

func parseMode(s string) (repro.CompareMode, error) {
	switch s {
	case "marked", "":
		return repro.MarkedNulls, nil
	case "sql":
		return repro.SQLNulls, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want marked or sql)", s)
	}
}

// parseQuery compiles a query in the requested language to the repro.Query
// interface.
func parseQuery(lang, text string) (repro.Query, error) {
	switch lang {
	case "ree", "":
		return repro.ParseREE(text)
	case "rem":
		return repro.ParseREM(text)
	case "rpq":
		return repro.ParseRPQ(text)
	default:
		return nil, fmt.Errorf("unknown query language %q", lang)
	}
}

// cmdNonempty runs the static nonemptiness analysis of a data RPQ and
// prints a witness data path if one exists.
func cmdNonempty(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nonempty", flag.ContinueOnError)
	queryText := fs.String("query", "", "query text")
	lang := fs.String("lang", "ree", "query language: ree or rem")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queryText == "" {
		return fmt.Errorf("nonempty: -query is required")
	}
	var w repro.DataPath
	var ok bool
	switch *lang {
	case "ree":
		q, err := repro.ParseREE(*queryText)
		if err != nil {
			return err
		}
		w, ok = q.WitnessDataPath()
	case "rem":
		q, err := repro.ParseREM(*queryText)
		if err != nil {
			return err
		}
		w, ok = q.WitnessDataPath()
	default:
		return fmt.Errorf("nonempty: unknown language %q", *lang)
	}
	if !ok {
		fmt.Fprintln(out, "empty: L(e) contains no data path")
		return nil
	}
	fmt.Fprintf(out, "nonempty; witness: %s\n", w)
	return nil
}

// cmdConj evaluates a conjunctive data RPQ, either directly on a graph or
// as certain answers under a mapping.
func cmdConj(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("conj", flag.ContinueOnError)
	graphPath := fs.String("graph", "", "data graph file (source graph when -mapping is given)")
	mappingPath := fs.String("mapping", "", "mapping file (certain-answer mode)")
	queryText := fs.String("query", "", "conjunctive query, e.g. 'ans(x,y) :- x -[a]-> y'")
	modeText := fs.String("mode", "marked", "comparison mode for direct evaluation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" || *queryText == "" {
		return fmt.Errorf("conj: -graph and -query are required")
	}
	q, err := repro.ParseConjunctive(*queryText)
	if err != nil {
		return err
	}
	var res *repro.TupleSet
	if *mappingPath != "" {
		s, err := openSession(*graphPath, *mappingPath)
		if err != nil {
			return err
		}
		res, err = s.CertainConjunctive(context.Background(), q)
		if err != nil {
			return err
		}
	} else {
		g, err := loadGraph(*graphPath)
		if err != nil {
			return err
		}
		mode, err := parseMode(*modeText)
		if err != nil {
			return err
		}
		res, err = q.Eval(g, mode)
		if err != nil {
			return err
		}
	}
	for _, tup := range res.Sorted() {
		for i, n := range tup {
			if i > 0 {
				fmt.Fprint(out, ", ")
			}
			fmt.Fprint(out, n)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "# %d answers\n", res.Len())
	return nil
}

func cmdEval(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	graphPath := fs.String("graph", "", "data graph file")
	queryText := fs.String("query", "", "query text")
	lang := fs.String("lang", "ree", "query language: ree, rem, rpq, gxnode")
	modeText := fs.String("mode", "marked", "comparison mode: marked or sql")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" || *queryText == "" {
		return fmt.Errorf("eval: -graph and -query are required")
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		return err
	}
	mode, err := parseMode(*modeText)
	if err != nil {
		return err
	}
	if *lang == "gxnode" {
		n, err := repro.ParseGXNode(*queryText)
		if err != nil {
			return err
		}
		for _, i := range repro.EvalGXNode(g, n, mode) {
			fmt.Fprintln(out, g.Node(i))
		}
		return nil
	}
	q, err := parseQuery(*lang, *queryText)
	if err != nil {
		return err
	}
	for _, p := range q.Eval(g, mode).IDPairs(g) {
		fmt.Fprintf(out, "%s -> %s\n", p.From, p.To)
	}
	return nil
}

func cmdSolve(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	graphPath := fs.String("graph", "", "source data graph file")
	mappingPath := fs.String("mapping", "", "mapping file")
	style := fs.String("style", "null", "solution style: null (universal) or fresh (least informative)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" || *mappingPath == "" {
		return fmt.Errorf("solve: -graph and -mapping are required")
	}
	s, err := openSession(*graphPath, *mappingPath)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var sol *repro.Graph
	switch *style {
	case "null":
		sol, err = s.UniversalSolution(ctx)
	case "fresh":
		sol, err = s.LeastInformativeSolution(ctx)
	default:
		return fmt.Errorf("solve: unknown style %q", *style)
	}
	if err != nil {
		return err
	}
	fmt.Fprint(out, sol.String())
	return nil
}

func cmdCertain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("certain", flag.ContinueOnError)
	graphPath := fs.String("graph", "", "source data graph file")
	mappingPath := fs.String("mapping", "", "mapping file")
	var queryTexts multiFlag
	fs.Var(&queryTexts, "query", "query text (repeatable; all queries share one session)")
	lang := fs.String("lang", "ree", "query language: ree, rem, rpq")
	algo := fs.String("algo", "null", "algorithm: null (Thm 4), exact (Prop 2), least (Thm 5), oneneq (Prop 4)")
	fromID := fs.String("from", "", "pair source (oneneq only)")
	toID := fs.String("to", "", "pair target (oneneq only)")
	maxNulls := fs.Int("maxnulls", 10, "exact-search budget")
	timeout := fs.Duration("timeout", time.Duration(0), "per-call timeout (0 = none)")
	workers := fs.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" || *mappingPath == "" || len(queryTexts) == 0 {
		return fmt.Errorf("certain: -graph, -mapping and -query are required")
	}
	var opts []repro.Option
	if *workers > 0 {
		opts = append(opts, repro.WithWorkers(*workers))
	}
	if *maxNulls != 0 {
		// 0 keeps the session default, matching the pre-session CLI where
		// ExactOptions{MaxNulls: 0} normalized to the default budget.
		opts = append(opts, repro.WithMaxNulls(*maxNulls))
	}
	if *timeout > 0 {
		opts = append(opts, repro.WithTimeout(*timeout))
	}
	s, err := openSession(*graphPath, *mappingPath, opts...)
	if err != nil {
		return err
	}
	ctx := context.Background()

	if *algo == "oneneq" {
		if len(queryTexts) != 1 {
			return fmt.Errorf("certain -algo oneneq takes exactly one -query")
		}
		q, err := repro.ParseREE(queryTexts[0])
		if err != nil {
			return err
		}
		if *fromID == "" || *toID == "" {
			return fmt.Errorf("certain -algo oneneq needs -from and -to")
		}
		ok, err := s.CertainOneInequality(ctx, q, repro.NodeID(*fromID), repro.NodeID(*toID))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "certain(%s, %s) = %v\n", *fromID, *toID, ok)
		return nil
	}

	queries := make([]repro.Query, len(queryTexts))
	for i, text := range queryTexts {
		q, err := parseQuery(*lang, text)
		if err != nil {
			return err
		}
		queries[i] = q
	}
	certainOne := func(q repro.Query) (*repro.Answers, error) {
		switch *algo {
		case "null":
			return s.CertainNull(ctx, q)
		case "exact":
			return s.CertainExact(ctx, q)
		case "least":
			return s.CertainLeastInformative(ctx, q)
		default:
			return nil, fmt.Errorf("certain: unknown algorithm %q", *algo)
		}
	}
	for i, q := range queries {
		ans, err := certainOne(q)
		if err != nil {
			return err
		}
		if len(queries) > 1 {
			fmt.Fprintf(out, "## query %d: %s\n", i+1, queryTexts[i])
		}
		for _, a := range ans.Sorted() {
			fmt.Fprintln(out, a)
		}
		fmt.Fprintf(out, "# %d certain answers\n", ans.Len())
	}
	return nil
}

func cmdClassify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("classify", flag.ContinueOnError)
	mappingPath := fs.String("mapping", "", "mapping file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mappingPath == "" {
		return fmt.Errorf("classify: -mapping is required")
	}
	m, err := loadMapping(*mappingPath)
	if err != nil {
		return err
	}
	cm, err := repro.Compile(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "rules:                    %d\n", len(m.Rules))
	fmt.Fprintf(out, "LAV:                      %v\n", cm.IsLAV())
	fmt.Fprintf(out, "GAV:                      %v\n", cm.IsGAV())
	fmt.Fprintf(out, "relational:               %v\n", cm.IsRelational())
	fmt.Fprintf(out, "relational/reachability:  %v\n", cm.IsRelationalReachability())
	return nil
}

func cmdCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	sourcePath := fs.String("source", "", "source data graph file")
	targetPath := fs.String("target", "", "target data graph file")
	mappingPath := fs.String("mapping", "", "mapping file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sourcePath == "" || *targetPath == "" || *mappingPath == "" {
		return fmt.Errorf("check: -source, -target and -mapping are required")
	}
	gs, err := loadGraph(*sourcePath)
	if err != nil {
		return err
	}
	gt, err := loadGraph(*targetPath)
	if err != nil {
		return err
	}
	m, err := loadMapping(*mappingPath)
	if err != nil {
		return err
	}
	ok, why := m.Check(gs, gt)
	if ok {
		fmt.Fprintln(out, "solution: (Gs, Gt) |= M")
		return nil
	}
	fmt.Fprintf(out, "not a solution: %s\n", why)
	return nil
}
