// Command spread is the benchmark's spread report. It reads the outputs of
// N runs (one file per run, as written by runset.sh: <workload>.<seed>.out)
// and prints, per workload × metric, the median, the quartiles and the
// spread (quartile distance ÷ median) against the bound in BENCHMARK.json.
// With -compare it also checks that a second set's medians are not worse
// than the first set's by more than each metric's bound.
//
// Usage, from the repository root:
//
//	go -C perfbench run ./cmd/spread -bench ../BENCHMARK.json /path/to/setA
//	go -C perfbench run ./cmd/spread -bench ../BENCHMARK.json -compare /path/to/setB /path/to/setA
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"freshsource/perfbench/load"
)

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runLine struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// set maps workload → metric → values over the set's runs.
type set map[string]map[string][]float64

// steal records each run's host steal share, per workload, to flag runs
// whose steal sits far above the set's median.
type stealRun struct {
	file    string
	share   float64
	lagging bool // ingest-read's producers fell behind their schedule
}

func readSet(dir string) (set, map[string][]stealRun, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, nil, err
	}
	s := set{}
	steal := map[string][]stealRun{}
	for _, f := range files {
		workload := strings.SplitN(filepath.Base(f), ".", 2)[0]
		line, diag, err := lastLines(f)
		if err != nil {
			return nil, nil, err
		}
		var rl runLine
		if err := json.Unmarshal([]byte(line), &rl); err != nil {
			return nil, nil, fmt.Errorf("%s: last line: %w", f, err)
		}
		var d struct {
			Diagnostics struct {
				Steal   float64 `json:"steal_share"`
				Lagging bool    `json:"generator_lagging"`
			} `json:"diagnostics"`
		}
		if json.Unmarshal([]byte(diag), &d) == nil {
			steal[workload] = append(steal[workload], stealRun{filepath.Base(f), d.Diagnostics.Steal, d.Diagnostics.Lagging})
		}
		if !rl.Correct {
			fmt.Fprintf(os.Stderr, "spread: %s: run reported correct=false\n", f)
		}
		if s[workload] == nil {
			s[workload] = map[string][]float64{}
		}
		for name, m := range rl.Metrics {
			s[workload][name] = append(s[workload][name], m.Value)
		}
	}
	if len(s) == 0 {
		return nil, nil, fmt.Errorf("%s: no *.out run files", dir)
	}
	return s, steal, nil
}

// lastLines returns a run's final result line and its diagnostics line.
func lastLines(path string) (last, diag string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		t := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(t, `{"diagnostics"`) {
			diag = t
		}
		if t != "" {
			last = t
		}
	}
	return last, diag, sc.Err()
}

// flagSteal prints the runs whose host steal exceeds twice the set's
// median steal (and the median by five points): their wall-clock figures
// measured the host, not the program. It also flags runs whose open-loop
// generator lagged.
func flagSteal(name string, steal map[string][]stealRun) {
	for w, runs := range steal {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r.share
		}
		med := load.Median(xs)
		fmt.Printf("%s %-12s host steal: median %.1f%% over %d runs\n", name, w, 100*med, len(runs))
		for _, r := range runs {
			if r.share > 2*med && r.share > med+0.05 {
				fmt.Printf("%s %-12s FLAGGED %s: steal %.1f%%, far above the set's median\n", name, w, r.file, 100*r.share)
			}
			if r.lagging {
				fmt.Printf("%s %-12s FLAGGED %s: the open-loop generator lagged\n", name, w, r.file)
			}
		}
	}
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "BENCHMARK.json with the metric bounds")
	compare := flag.String("compare", "", "second set to compare against the first")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: spread [-bench BENCHMARK.json] [-compare setB] setA")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fatal(err)
	}
	a, stealA, err := readSet(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	flagSteal("set", stealA)
	var b set
	if *compare != "" {
		var stealB map[string][]stealRun
		if b, stealB, err = readSet(*compare); err != nil {
			fatal(err)
		}
		flagSteal("second set", stealB)
	}

	bad := false
	workloads := make([]string, 0, len(a))
	for w := range a {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	fmt.Printf("%-12s %-14s %4s %14s %14s %14s %8s %6s  %s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			xs := a[w][m.Name]
			if len(xs) == 0 {
				fmt.Printf("%-12s %-14s missing\n", w, m.Name)
				bad = true
				continue
			}
			q1, med, q3 := load.Quartiles(xs)
			spread := (q3 - q1) / med
			verdict := "steady (< bound/3)"
			switch {
			case spread >= m.Bound:
				verdict = "NOISY (≥ bound)"
				bad = true
			case spread >= m.Bound/3:
				verdict = "within bound, above bound/3"
			}
			fmt.Printf("%-12s %-14s %4d %14.4f %14.4f %14.4f %7.2f%% %5.0f%%  %s\n",
				w, m.Name, len(xs), q1, med, q3, 100*spread, 100*m.Bound, verdict)
			if b == nil {
				continue
			}
			ys := b[w][m.Name]
			if len(ys) == 0 {
				fmt.Printf("%-12s %-14s missing in the second set\n", w, m.Name)
				bad = true
				continue
			}
			med2 := load.Median(ys)
			worse := (med2 - med) / med
			if m.Better == "higher" {
				worse = -worse
			}
			v := "ok"
			if worse > m.Bound || math.IsNaN(worse) {
				v = "WORSE than bound"
				bad = true
			}
			fmt.Printf("%-12s %-14s second median %.4f, %+.2f%% worse  %s\n", w, m.Name, med2, 100*worse, v)
		}
	}
	if bad {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spread:", err)
	os.Exit(2)
}
