// Command salientbench regenerates the paper's timing evaluation via the
// discrete-event performance model: Table 1 (progressive optimizations),
// Table 2 (datasets), Table 4 (DistDGL comparison), and Figures 4–9.
//
// Example:
//
//	salientbench -exp table1
//	salientbench -exp all -papers 200000 -batch 32
//
// Wall-clock performance of the real training and serving stack is
// measured by the repository benchmark (bench/, run with bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"salientpp/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("salientbench: ")
	var (
		exp         = flag.String("exp", "all", "experiment: table1|table2|table4|fig4|fig5|fig6|fig7|fig8|fig9|all")
		products    = flag.Int("products", 60000, "products-sim vertices")
		papers      = flag.Int("papers", 200000, "papers-sim vertices")
		mag240      = flag.Int("mag240", 100000, "mag240-sim vertices")
		batch       = flag.Int("batch", 128, "per-machine batch size")
		boost       = flag.Float64("trainboost", 8, "training-density boost for sparse-label datasets (see EXPERIMENTS.md)")
		seed        = flag.Uint64("seed", 7, "random seed")
		parallelism = flag.Int("parallelism", 2, "sampler/analysis worker count (0 = harness default)")
	)
	flag.Parse()
	if *parallelism < 0 {
		log.Fatalf("-parallelism: negative worker count %d", *parallelism)
	}

	scale := experiments.Scale{
		ProductsN: *products, PapersN: *papers, Mag240N: *mag240,
		Batch: *batch, TrainBoost: *boost, Workers: *parallelism, Seed: *seed,
	}

	run := map[string]func() (string, error){
		"table1": func() (string, error) {
			r, err := experiments.Table1(scale)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"table2": func() (string, error) { return experiments.Table2(scale) },
		"table4": func() (string, error) {
			r, err := experiments.Table4(scale)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		},
		"fig4": func() (string, error) {
			r, err := experiments.Fig4(scale)
			if err != nil {
				return "", err
			}
			return experiments.RenderFig4(r), nil
		},
		"fig5": func() (string, error) {
			r, err := experiments.Fig5(scale)
			if err != nil {
				return "", err
			}
			return experiments.RenderFig5(r), nil
		},
		"fig6": func() (string, error) {
			r, err := experiments.Fig6(scale)
			if err != nil {
				return "", err
			}
			return experiments.RenderFig6(r), nil
		},
		"fig7": func() (string, error) {
			r, err := experiments.Fig7(scale)
			if err != nil {
				return "", err
			}
			return experiments.RenderFig7(r), nil
		},
		"fig8": func() (string, error) {
			r, err := experiments.Fig8(scale)
			if err != nil {
				return "", err
			}
			return experiments.RenderFig8(r), nil
		},
		"fig9": func() (string, error) {
			r, err := experiments.Fig9(scale)
			if err != nil {
				return "", err
			}
			return experiments.RenderFig9(r), nil
		},
	}

	order := []string{"table2", "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table4"}
	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := run[name]; !ok {
				log.Fatalf("unknown experiment %q (want one of %s, or all)", name, strings.Join(order, "|"))
			}
			selected = append(selected, name)
		}
	}
	for _, name := range selected {
		out, err := run[name]()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(out)
		fmt.Println()
	}
}
