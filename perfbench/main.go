// Command perfbench is drdp's round benchmark. It starts the real
// replicated tier in-process (cluster.Start: loopback listeners, fsync'd
// stores, semi-sync replication, coordinator probes), drives one of
// three workloads through the public client and device APIs for a fixed
// time, checks that the outputs are correct, and prints every metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones BENCHMARK.json
// lists; with --trace 1 they are its per-layer ones, taken from a run
// that records spans around the benchmark's own calls into each layer
// and collects the spans the program already emits.
//
// Run it through perfbench/run.sh from the root of a checkout; see
// perfbench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runSeconds is the measured time per run that BENCHMARK.json fixes.
const runSeconds = 30

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload = flag.String("workload", "", "device-rounds | ingest-durable | prior-refresh | all")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", runSeconds, "measured seconds per workload")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out      = flag.String("out", ".bench_build/perfbench-out", "directory for stores and span dumps")
		manifest = flag.String("manifest", "", "write BENCHMARK.json and perfbench/metrics.json under this repository root and exit")
	)
	flag.Parse()
	if *manifest != "" {
		return writeManifests(*manifest)
	}
	var names []string
	switch *workload {
	case "all":
		names = allWorkloads
	case wRounds, wIngest, wRefresh:
		names = []string{*workload}
	default:
		return fmt.Errorf("unknown --workload %q (want %s or all)", *workload, strings.Join(allWorkloads, ", "))
	}
	if *seconds <= 0 || math.IsNaN(*seconds) {
		return fmt.Errorf("--seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	var results []*result
	for _, name := range names {
		cfg := runConfig{
			workload: name,
			seed:     *seed,
			seconds:  *seconds,
			traced:   *traced == 1,
			out:      filepath.Join(*out, fmt.Sprintf("%s-%d-%d", name, *seed, os.Getpid())),
		}
		res, err := runWorkload(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.print(os.Stdout)
		results = append(results, res)
	}
	if *traced == 1 && len(results) > 0 {
		printBudget(os.Stdout, results)
	}
	line, err := resultLine(results, *traced == 1)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	for _, r := range results {
		if !r.correct() {
			return errors.New("correctness check failed")
		}
	}
	return nil
}

// resultLine is the final JSON object. With several workloads (--workload
// all) the counts add up and each metric name takes the workload as a
// prefix.
func resultLine(results []*result, traced bool) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: map[string]val{}}
	list := contract(endToEnd)
	if traced {
		list = contract(perLayer)
	}
	for _, r := range results {
		line.Correct = line.Correct && r.correct()
		line.Attempted += r.attempted
		line.Failed += r.failedTotal()
		for _, m := range list {
			v, ok := r.values[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: metric %s was not measured", r.workload, m.Name)
			}
			name := m.Name
			if len(results) > 1 {
				name = r.workload + "." + m.Name
			}
			line.Metrics[name] = val{v, m.Unit}
		}
	}
	if line.Attempted < 1 {
		line.Attempted = 1
		line.Failed = 1
		line.Correct = false
	}
	return json.Marshal(line)
}

// writeManifests renders BENCHMARK.json and perfbench/metrics.json under
// the repository root.
func writeManifests(root string) error {
	bj, err := benchmarkJSON()
	if err != nil {
		return err
	}
	mj, err := manifestJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), bj, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "metrics.json"), mj, 0o644)
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
