package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/ingest"
	"repro/internal/workload"
)

// cmdIngest bulk-loads a relational source — CSV files or a SQLite
// database — into a data graph via the streaming direct mapping of
// internal/ingest, and writes the graph in the datagraph text format.
//
//	gsm ingest -schema schema.txt [-dir d] [table=file.csv ...] [-o g.txt]
//	gsm ingest -sqlite db.sqlite [-schema schema.txt] [-o g.txt]
//
// CSV sources resolve per table: an explicit table=path argument wins,
// else the schema's file= attribute (or <table>.csv) relative to -dir,
// which defaults to the schema file's directory. With -sqlite the schema
// is derived from the database's DDL unless -schema overrides it.
func cmdIngest(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	schemaPath := fs.String("schema", "", "ingest schema file (table/col/fk directives)")
	sqlitePath := fs.String("sqlite", "", "SQLite database file to ingest instead of CSV")
	dir := fs.String("dir", "", "directory for schema-relative CSV files (default: schema file's directory)")
	outPath := fs.String("o", "", "output graph file (default stdout)")
	batch := fs.Int("batch", 0, "rows per commit batch (0 = pipeline default)")
	skipBad := fs.Bool("skip-bad-rows", false, "skip malformed rows instead of aborting (default strict)")
	progress := fs.Bool("progress", false, "report per-batch progress on stderr")
	timeout := fs.Duration("timeout", 0, "load timeout (0 = none)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var schema *ingest.Schema
	var srcs []ingest.Source
	switch {
	case *sqlitePath != "":
		if fs.NArg() > 0 {
			return fmt.Errorf("ingest: -sqlite and table=file.csv arguments are mutually exclusive")
		}
		db, err := ingest.OpenSQLite(*sqlitePath)
		if err != nil {
			return err
		}
		if *schemaPath != "" {
			if schema, err = loadSchema(*schemaPath); err != nil {
				return err
			}
			for i := range schema.Tables {
				srcs = append(srcs, db.Source(schema.Tables[i].Name))
			}
		} else {
			if schema, err = db.Schema(); err != nil {
				return err
			}
			srcs = db.Sources()
		}
	case *schemaPath != "":
		var err error
		if schema, err = loadSchema(*schemaPath); err != nil {
			return err
		}
		// Explicit table=path arguments override the schema-relative
		// lookup; unknown table names are caller mistakes.
		explicit := make(map[string]string)
		for _, arg := range fs.Args() {
			table, path, ok := strings.Cut(arg, "=")
			if !ok {
				return fmt.Errorf("ingest: argument %q is not table=file.csv", arg)
			}
			if _, ok := schema.Table(table); !ok {
				return fmt.Errorf("ingest: table %q is not in the schema", table)
			}
			explicit[table] = path
		}
		base := *dir
		if base == "" {
			base = filepath.Dir(*schemaPath)
		}
		for i := range schema.Tables {
			t := &schema.Tables[i]
			path, ok := explicit[t.Name]
			if !ok {
				file := t.File
				if file == "" {
					file = t.Name + ".csv"
				}
				path = filepath.Join(base, file)
			}
			srcs = append(srcs, ingest.CSVFile(t.Name, path))
		}
	default:
		return fmt.Errorf("ingest: -schema or -sqlite is required")
	}
	return runIngest(schema, srcs, *outPath, *batch, *skipBad, *progress, *timeout, out)
}

func loadSchema(path string) (*ingest.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ingest.ParseSchema(string(data))
}

func runIngest(schema *ingest.Schema, srcs []ingest.Source, outPath string, batch int, skipBad, progress bool, timeout time.Duration, out io.Writer) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	opts := ingest.Options{BatchSize: batch, SkipBadRows: skipBad}
	if progress {
		opts.Progress = func(p ingest.Progress) {
			fmt.Fprintf(os.Stderr, "gsm ingest: %s: %d rows (%d skipped), %d nodes, %d edges\n",
				p.Table, p.Rows, p.Skipped, p.Nodes, p.Edges)
		}
	}
	g, rep, err := ingest.Load(ctx, schema, opts, srcs...)
	if err != nil {
		return err
	}
	// The report goes wherever the graph doesn't: to out when the graph
	// lands in a file, to stderr when it streams to stdout.
	repW := io.Writer(os.Stderr)
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(g.String()), 0o644); err != nil {
			return err
		}
		repW = out
	} else {
		fmt.Fprint(out, g.String())
	}
	fmt.Fprintf(repW, "ingested %d rows (%d skipped, %d dangling FKs dropped) -> %d nodes, %d edges in %d batches (%d snapshot builds, %s)\n",
		rep.Rows, rep.Skipped, rep.DroppedFKs, rep.Nodes, rep.Edges, rep.Batches,
		rep.FullBuilds, rep.Elapsed.Round(time.Millisecond))
	return nil
}

// cmdGenRel generates the synthetic customer/product/orders relational
// dataset (workload.Relational) as schema.txt plus CSV files, and
// optionally as a SQLite image — the fixture generator the ingest smoke
// script feeds back through `gsm ingest`.
func cmdGenRel(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("genrel", flag.ContinueOnError)
	customers := fs.Int("customers", 1000, "customer rows")
	products := fs.Int("products", 200, "product rows")
	orders := fs.Int("orders", 5000, "orders rows")
	seed := fs.Int64("seed", 1, "generator seed (same seed, same bytes)")
	dir := fs.String("dir", "", "output directory for schema.txt + CSV files (required)")
	sqlitePath := fs.String("sqlite", "", "also write a SQLite image at this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("genrel: -dir is required")
	}
	spec := workload.RelationalSpec{Customers: *customers, Products: *products, Orders: *orders, Seed: *seed}
	d := workload.Relational(spec)
	if err := d.WriteCSV(*dir); err != nil {
		return err
	}
	if *sqlitePath != "" {
		if err := d.WriteSQLite(*sqlitePath); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "wrote %s: %d customers, %d products, %d orders (%d rows, seed %d)\n",
		*dir, *customers, *products, *orders, spec.Rows(), *seed)
	return nil
}
