// Command bench is the repository's benchmark: two training and two
// serving workloads built from a seed, each measured untraced for the
// end-to-end metrics BENCHMARK.json gates and, in a separate traced pass,
// for the per-layer metrics. It imports only the layer packages, never the
// older harness in internal/experiments, so a later change cannot move a
// number by editing the code that measures it. See README.md.
//
//	bench --workload train.comm --seed 7 --seconds 12 --trace 0
//	bench -compare base.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 7, "seed of every generated input")
		seconds = flag.Float64("seconds", 12, "measured time of one pass")
		trace   = flag.String("trace", "both", "0: end-to-end pass, 1: traced per-layer pass, both")
		scaleID = flag.String("scale", "full", "full or smoke")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for results.json and the traces")
		compare = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *name)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	sc, ok := scales[*scaleID]
	if !ok {
		fatal(fmt.Errorf("unknown scale %q", *scaleID))
	}
	selected := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []*workload{w}
	}
	var passes []int
	switch *trace {
	case "0":
		passes = []int{0}
	case "1":
		passes = []int{1}
	case "both":
		passes = []int{0, 1}
	default:
		fatal(fmt.Errorf("unknown trace mode %q", *trace))
	}
	if *seconds <= 0 {
		fatal(errors.New("seconds must be positive"))
	}
	// Two procs whatever the box has, so runs on bigger machines compare.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	correct := true
	for _, w := range selected {
		for _, pass := range passes {
			rec, err := runPass(w, sc, *seed, *seconds, pass, *outDir)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.Name, err))
			}
			if err := appendResult(filepath.Join(*outDir, "results.json"), rec); err != nil {
				fatal(err)
			}
			if err := rec.print(os.Stdout); err != nil {
				fatal(err)
			}
			correct = correct && rec.Correct
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func runPass(w *workload, sc scale, seed uint64, seconds float64, pass int, outDir string) (*record, error) {
	tracePath := filepath.Join(outDir, "trace-"+w.Name+".json")
	switch {
	case w.serving && pass == 0:
		return runServe(w, sc, seed, seconds)
	case w.serving:
		return traceServe(w, sc, seed, seconds, tracePath)
	case pass == 0:
		return runTrain(w, sc, seed, seconds)
	default:
		return traceTrain(w, sc, seed, seconds, tracePath)
	}
}

// appendResult adds rec to the JSON array at path, so repeated runs with
// one -out build the set of runs -compare takes medians over.
func appendResult(path string, rec *record) error {
	recs, err := readResults(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	buf, err := json.MarshalIndent(append(recs, rec), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResults(path string) ([]*record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*record
	if err := json.Unmarshal(buf, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
