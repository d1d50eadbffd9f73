package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The declarations the program reports by must be the ones BENCHMARK.json
// promises, so neither can change without the other.
func TestDeclarationsMatchManifest(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %q / %q, program %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDecl) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, the program %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			if got[i] != (manifestMetric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, got[i], d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s metric %q (%q): bad or repeated name, or bad unit", kind, d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s metric %q: better is %q", kind, d.Name, d.Better)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end_to_end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if m.EndToEnd[len(m.EndToEnd)-1].Name != "setup_s" {
		t.Errorf("setup_s is missing from the end-to-end metrics")
	}
}

// Smoke: every workload, both passes, at a size that takes seconds. Each
// result must carry exactly the declared metrics of its pass with their
// units, and each traced pass must leave a trace that parses.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	out := t.TempDir()
	sc := scales["smoke"]
	for _, w := range workloads {
		for pass, decls := range [][]metricDecl{endToEnd, perLayer} {
			rec, err := runPass(w, sc, 7, 0.5, pass, out)
			if err != nil {
				t.Fatalf("%s pass %d: %v", w.Name, pass, err)
			}
			// A few requests may miss the admission deadline under the race
			// detector; more than a twentieth failing is a broken workload.
			if !rec.Correct || rec.Attempted < 1 || rec.Failed*20 > rec.Attempted {
				t.Errorf("%s pass %d: correct=%v attempted=%d failed=%d problems=%v", w.Name, pass, rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
			}
			if len(rec.Metrics) != len(decls) {
				t.Errorf("%s pass %d: %d metrics reported, %d declared", w.Name, pass, len(rec.Metrics), len(decls))
			}
			for _, d := range decls {
				v, ok := rec.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s pass %d: metric %q missing or in unit %q, want %q", w.Name, pass, d.Name, v.Unit, d.Unit)
				}
				if pass == 0 && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %q is %v; it must never be 0", w.Name, d.Name, v.Value)
				}
			}
			if err := appendResult(filepath.Join(out, "results.json"), rec); err != nil {
				t.Fatal(err)
			}
		}
		buf, err := os.ReadFile(filepath.Join(out, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(buf, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: trace has %d spans, error %v", w.Name, len(spans), err)
		}
		if _, err := selfTimes(spans); err != nil {
			t.Errorf("%s: stored trace: %v", w.Name, err)
		}
	}
	// The file the runs built compares as same against itself.
	results := filepath.Join(out, "results.json")
	if recs, err := readResults(results); err != nil || len(recs) != 2*len(workloads) {
		t.Fatalf("results.json holds %d records, error %v", len(recs), err)
	}
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if ok, err := compareFiles(devnull, results, results, "all"); err != nil || !ok {
		t.Errorf("a result file against itself: ok=%v err=%v", ok, err)
	}
}
