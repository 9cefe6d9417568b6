// Command perfbench is the repository benchmark. One invocation runs one
// workload — a loopback-TCP federation or a serving fleet — inside this
// process, checks that the program's outputs are correct, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) as a table
// followed by one JSON result line. See README.md in this directory for the
// workloads, the metrics and how to read them.
//
//	bash perfbench/run.sh --workload fed-lan-sync --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// opts are one invocation's settings.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workDir  string // scratch for WAL directories and probe files
}

// budget is the measured wall time of the invocation.
func (o opts) budget() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, o opts) *result
}

var workloads = []workload{
	{"fed-lan-sync", "compute-bound sync FedAvg: the train step dominates the round", func(ctx context.Context, o opts) *result { return runFed(ctx, o, lanSync) }},
	{"fed-wan-sync", "bandwidth-bound sync FedAvg over 2 MB/s links with the q8 codec and the WAL", func(ctx context.Context, o opts) *result { return runFed(ctx, o, wanSync) }},
	{"fed-async-straggler", "FedBuff K=1 with a 40 ms/batch straggler and the WAL: commit rate and fsync", func(ctx context.Context, o opts) *result { return runFed(ctx, o, asyncStraggler) }},
	{"serve-mixed", "continuous batching under 8 closed-loop callers, 3 generate : 1 score", runServe},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced pass and reports per-layer metrics")
		root    = flag.String("root", ".", "repository checkout the benchmark was built from")
	)
	flag.Parse()
	var w *workload
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build", "work"), w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := opts{workload: w.name, seed: *seed, seconds: *seconds, traced: *trace == 1, workDir: work}
	prov := readProvenance(*root, o)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds*float64(time.Second))+90*time.Second)
	res := w.run(ctx, o)
	cancel()
	os.RemoveAll(work)
	if err := res.print(os.Stdout, w, o, prov); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// metric is one reported number. Value is what the result line carries;
// Sum, when set, is the sample summary it was reduced from.
type metric struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Value float64  `json:"value"`
	Sum   *summary `json:"summary,omitempty"`
	Note  string   `json:"note,omitempty"`
}

// check is one correctness gate.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	e2e               []metric // the end-to-end metrics BENCHMARK.json lists
	layers            []metric // the per-layer metrics BENCHMARK.json lists
	extra             []metric // metrics that exist only on some workloads
	shares            []metric // each layer's share of round or request wall time
	checks            []check
	notes             []string
	trajectory        [][2]float64 // (seconds, validation PPL) of the first federation
	err               error
}

func (r *result) add(list *[]metric, name, unit string, v float64, s *summary, note string) {
	*list = append(*list, metric{Name: name, Unit: unit, Value: v, Sum: s, Note: note})
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	if r.err != nil || len(r.checks) == 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// print writes the provenance line, the human-readable tables, a detail
// JSON line, and last the one-line JSON result.
func (r *result) print(f *os.File, w *workload, o opts, prov provenance) error {
	out := r.e2e
	title := "end-to-end"
	if o.traced {
		out, title = r.layers, "per-layer"
	}
	for _, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.err = errors.Join(r.err, fmt.Errorf("metric %s has no finite value", m.Name))
		}
	}
	r.e2e, r.layers, r.extra, r.shares = finite(r.e2e), finite(r.layers), finite(r.extra), finite(r.shares)
	out = finite(out)
	line, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "%s\n", line)
	fmt.Fprintf(f, "# %s seed=%d seconds=%g trace=%v: %s\n", w.name, o.seed, o.seconds, o.traced, w.why)
	if r.err != nil {
		fmt.Fprintf(f, "# error: %v\n", r.err)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(f, "# attempted=%d failed=%d failed_ratio=%.4g\n", r.attempted, r.failed, ratio)
	printTable(f, title, out)
	printTable(f, "workload metrics", r.extra)
	printTable(f, "share of round or request wall time", r.shares)
	for _, n := range r.notes {
		fmt.Fprintf(f, "# note: %s\n", n)
	}
	for _, c := range r.checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(f, "# check %-28s %s  %s\n", c.Name, status, c.Detail)
	}
	detail, err := json.Marshal(map[string]any{
		"detail": map[string]any{"end_to_end": r.e2e, "per_layer": r.layers, "workload": r.extra,
			"shares": r.shares, "checks": r.checks, "failed_ratio": ratio, "ppl_trajectory": r.trajectory},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "%s\n", detail)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range out {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	final, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", final)
	return err
}

// finite returns a copy of ms with every NaN or infinite number — a metric
// or summary with no samples — replaced by 0, which JSON can carry.
func finite(ms []metric) []metric {
	fix := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return x
	}
	out := make([]metric, len(ms))
	for i, m := range ms {
		m.Value = fix(m.Value)
		if m.Sum != nil {
			s := *m.Sum
			s.Median, s.Tail, s.Min, s.Max = fix(s.Median), fix(s.Tail), fix(s.Min), fix(s.Max)
			m.Sum = &s
		}
		out[i] = m
	}
	return out
}

func printTable(f *os.File, title string, ms []metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(f, "# %s\n", title)
	fmt.Fprintf(f, "#   %-28s %-6s %14s %14s %7s %6s\n", "metric", "unit", "value", "tail", "at", "n")
	for _, m := range ms {
		tail, at, n := "-", "-", "-"
		if s := m.Sum; s != nil {
			n = fmt.Sprint(s.N)
			if s.TailPM > 0 {
				tail, at = fmt.Sprintf("%.6g", s.Tail), fmt.Sprintf("p%g", float64(s.TailPM)/10)
			}
		}
		fmt.Fprintf(f, "#   %-28s %-6s %14.6g %14s %7s %6s", m.Name, m.Unit, m.Value, tail, at, n)
		if m.Note != "" {
			fmt.Fprintf(f, "  %s", m.Note)
		}
		fmt.Fprintln(f)
	}
}
