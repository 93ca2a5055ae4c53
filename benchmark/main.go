// Command benchmark is the repository's benchmark: five workloads, both
// clocks, and a layer ladder from gateway down to exec. README.md beside this
// file has the tables; BENCHMARK.json at the repository root is the contract
// with the driver that runs it.
//
//	benchmark -seed 1                       every workload, timed (tracing off)
//	benchmark -seed 1 -trace 1              every workload, traced (per-layer)
//	benchmark -workload warm-steady ...     one workload; last stdout line is the driver's JSON
//	benchmark -compare a.json b.json        per-metric verdicts between two run files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// Defaults: run_seconds in BENCHMARK.json, and how often set-up is repeated
// so setup_s is a median.
const (
	defaultSeconds = 15
	httpSetups     = 5
	densitySetups  = 3
)

// boolArg is a flag that takes its value as a separate argument ("--trace 1"),
// which flag.Bool does not.
type boolArg bool

func (b *boolArg) String() string { return strconv.FormatBool(bool(*b)) }
func (b *boolArg) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolArg(v)
	return err
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all five)")
		seed         = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds      = flag.Float64("seconds", defaultSeconds, "measurement window per workload")
		compare      = flag.Bool("compare", false, "compare two run files: -compare a.json b.json")
		serve        = flag.String("serve-child", "", "internal: serve this workload's gateway until told to drain")
		trace        boolArg
	)
	flag.Var(&trace, "trace", "1: traced run (per-layer metrics); 0: timed run (end-to-end metrics)")
	flag.Parse()

	switch {
	case *serve != "":
		if err := serveChild(*serve); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	default:
		os.Exit(runAll(*workloadName, *seed, *seconds, bool(trace), findRoot()))
	}
}

// findRoot walks up from the working directory to the checkout's root, so the
// benchmark runs the same from the root, from benchmark/ and under go test.
func findRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "results", "fig4.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

// runAll runs the selected workloads, prints every metric by name with its
// unit, writes the run file and returns the exit code: non-zero if a run
// failed or any output check did.
func runAll(only string, seed int64, seconds float64, trace bool, root string) int {
	outDir := filepath.Join(root, "benchmark", "out")
	selected := workloads
	if only != "" {
		w, ok := workloadByName(only)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", only)
			return 2
		}
		selected = []workload{w}
	}
	// Fail before measuring anything if the repository is not around us: the
	// density checks read results/, and a benchmark directory on its own is
	// not a checkout.
	if _, err := committedCell(root, "fig4"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	sc := newScript(seed)
	file := runFile{Schema: 1, Env: currentEnv(root, seed, seconds, trace)}
	ok := true
	for _, w := range selected {
		res, err := runOne(w, sc, seconds, trace, root, outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		res.print(os.Stdout)
		file.Workloads = append(file.Workloads, res)
		ok = ok && res.correct()
	}
	name := only
	if name == "" {
		name = "all"
	}
	if trace {
		name += "-trace"
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := writeJSONFile(path, file); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\nrun file: %s\n", path)
	if only != "" {
		line, err := json.Marshal(file.Workloads[0].driverLine())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

func runOne(w workload, sc *script, seconds float64, trace bool, root, outDir string) (*workloadResult, error) {
	// Runs of the HTTP workloads, timed or traced, keep this process on the
	// generator's half of the machine; density, which has no server, gets all
	// of it.
	cpus := allCPUs
	if !w.Density {
		cpus = clientCPUs
	}
	pinned := pinSelf(cpus) == nil
	res, err := runPinned(w, sc, seconds, trace, root, outDir)
	if err == nil && !pinned {
		res.Notes = append(res.Notes, "sched_setaffinity refused: generator and server ran unpinned")
	}
	return res, err
}

func runPinned(w workload, sc *script, seconds float64, trace bool, root, outDir string) (*workloadResult, error) {
	if trace {
		res, tf, err := traceRun(w, sc, root, seconds)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, "trace-"+w.Name+".json")
		if err := writeJSONFile(path, tf); err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, "spans: "+path)
		return res, nil
	}
	if w.Density {
		return runDensity(w, root, seconds, densitySetups)
	}
	return runHTTP(w, sc, seconds, httpSetups)
}
