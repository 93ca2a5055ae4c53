// Command continuum is the experiment driver (named after the paper's
// deployment framework): it regenerates the paper's tables and figures on
// the simulated Kubernetes cluster.
//
// Usage:
//
//	continuum -list
//	continuum -exp fig3
//	continuum -exp all -outdir results
//	continuum -exp serve -telemetry -outdir /tmp/serve
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"wasmcontainers/internal/bench"
	"wasmcontainers/internal/obs"
)

func main() {
	var (
		expID     = flag.String("exp", "", "experiment id (table1, table2, fig3..fig10, ablation-*, or 'all')")
		list      = flag.Bool("list", false, "list available experiments")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonF     = flag.Bool("json", false, "emit JSON instead of aligned text")
		outDir    = flag.String("outdir", "", "also write each result to <outdir>/<id>.{txt,csv,json}")
		telemetry = flag.Bool("telemetry", false, "collect metrics and request-lifecycle spans; with -outdir, write <outdir>/<id>.metrics.prom and <outdir>/<id>.trace.json")
		traceOut  = flag.String("trace-out", "", "write the Chrome trace of the last experiment to this path (implies -telemetry)")
	)
	flag.Parse()
	if *traceOut != "" {
		*telemetry = true
	}

	if *list || *expID == "" {
		os.Exit(listExitCode(*expID, *list, os.Stdout))
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	run := func(e bench.Experiment) {
		// Fresh telemetry per experiment so each <id>.metrics.prom and
		// <id>.trace.json describes exactly one experiment's runs.
		var tele *obs.Telemetry
		if *telemetry {
			tele = obs.New(obs.Config{})
			bench.SetTelemetry(tele)
		}
		table, err := e.Run()
		bench.SetTelemetry(nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if tele != nil {
			snap := tele.Snapshot()
			table.Telemetry = &snap
		}
		switch {
		case *csv:
			fmt.Print(table.CSV())
		case *jsonF:
			fmt.Print(table.JSON())
		default:
			fmt.Println(table.Format())
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fail(err)
			}
			base := filepath.Join(*outDir, e.ID)
			for ext, render := range map[string]func() string{
				".txt": table.Format, ".csv": table.CSV, ".json": table.JSON,
			} {
				if err := os.WriteFile(base+ext, []byte(render()), 0o644); err != nil {
					fail(err)
				}
			}
			if tele != nil {
				if err := writeTelemetry(base, tele); err != nil {
					fail(err)
				}
			}
		}
		if *traceOut != "" && tele != nil {
			f, err := os.Create(*traceOut)
			if err != nil {
				fail(err)
			}
			if err := obs.WriteChromeTrace(f, tele.Tracer().Spans()); err != nil {
				f.Close()
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
		}
	}

	if *expID == "all" {
		for _, e := range bench.Experiments() {
			run(e)
		}
		return
	}
	e, ok := bench.ExperimentByID(*expID)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *expID)
		os.Exit(2)
	}
	run(e)
}

// listExitCode prints the experiment catalog to w and returns the process
// exit code for a no-work invocation: 0 for an explicit -list, 2 when the
// user simply omitted -exp — that is a usage error, and scripts must see it
// fail rather than mistake the catalog for results.
func listExitCode(expID string, list bool, w io.Writer) int {
	fmt.Fprintln(w, "available experiments:")
	for _, e := range bench.Experiments() {
		fmt.Fprintf(w, "  %-18s %s\n", e.ID, e.Description)
	}
	if expID == "" && !list {
		return 2
	}
	return 0
}

// writeTelemetry emits <base>.metrics.prom (Prometheus text exposition) and
// <base>.trace.json (Chrome trace-event JSON) for one experiment.
func writeTelemetry(base string, tele *obs.Telemetry) error {
	pf, err := os.Create(base + ".metrics.prom")
	if err != nil {
		return err
	}
	if err := obs.WritePrometheus(pf, tele.Snapshot()); err != nil {
		pf.Close()
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}
	tf, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(tf, tele.Tracer().Spans()); err != nil {
		tf.Close()
		return err
	}
	return tf.Close()
}
