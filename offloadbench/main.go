// Command offloadbench is the repository's end-to-end offload
// benchmark. It boots a hermetic cluster in-process — surrogates, an
// SDN front-end and a client, all on loopback — drives one workload
// through it, verifies every result against one computed before the
// run, and prints every metric by name with its unit. The last line of
// its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half and the metrics are
// the per-layer ones. -repeat N re-runs the workload N times with seeds
// seed..seed+N-1 and prints each metric's median and quartiles. See
// README.md for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("offloadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: tiny-bin, pool-json or crowd-queue")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 30, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	repeat := fs.Int("repeat", 0, "if > 0, run the workload this many times and print medians and quartiles")
	spans := fs.String("spans", "", "with -trace 1, write the raw spans to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "offloadbench: need -workload tiny-bin|pool-json|crowd-queue, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	if *repeat > 0 {
		if err := repeatRuns(stdout, stderr, *name, *seed, *seconds, *traced, *repeat); err != nil {
			fmt.Fprintf(stderr, "offloadbench: %v\n", err)
			return 1
		}
		return 0
	}
	runtime.GOMAXPROCS(sp.gomaxprocs())
	fmt.Fprintf(stdout, "offloadbench workload=%s seed=%d seconds=%d trace=%d\n", sp.name, *seed, *seconds, *traced)
	fmt.Fprintf(stdout, "env go=%s gomaxprocs=%d nproc=%d os=%s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	d := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(stdout, sp, *seed, d, *spans)
	} else {
		res, err = runEndToEnd(stdout, sp, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "offloadbench: %v\n", err)
		return 1
	}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "metric %s = %v %s\n", m.name, m.value, m.unit)
	}
	for _, m := range res.ungated {
		fmt.Fprintf(stdout, "reported %s = %v %s\n", m.name, m.value, m.unit)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintf(stderr, "offloadbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

type metric struct {
	name, unit string
	value      float64
}

// result is one run's verdict and metrics. The result line carries
// metrics; ungated ones are printed on the report lines only.
type result struct {
	correct           bool
	attempted, failed int
	metrics, ungated  []metric
}

func (r *result) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	return string(b), nil
}

// repeatRuns runs the workload n times as child processes, with seeds
// seed..seed+n-1, and prints each metric's median, quartiles and
// quartile spread as a share of the median.
func repeatRuns(stdout, stderr io.Writer, name string, seed int64, seconds, traced, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for k := 0; k < n; k++ {
		s := seed + int64(k)
		var out bytes.Buffer
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced))
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool `json:"correct"`
			Attempted int  `json:"attempted"`
			Failed    int  `json:"failed"`
			Metrics   map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: parse result: %w", s, err)
		}
		run := map[string]float64{}
		for k, v := range res.Metrics {
			run[k] = v.Value
			units[k] = v.Unit
		}
		for _, line := range lines {
			var name, unit string
			var v float64
			if n, _ := fmt.Sscanf(line, "reported %s = %g %s", &name, &v, &unit); n == 3 {
				run[name] = v
				units[name] = unit + " (reported)"
			}
		}
		fmt.Fprintf(stdout, "run seed=%d correct=%v attempted=%d failed=%d", s, res.Correct, res.Attempted, res.Failed)
		for _, k := range sortedKeys(run) {
			values[k] = append(values[k], run[k])
			fmt.Fprintf(stdout, " %s=%.6g", k, run[k])
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-30s %14s %14s %14s %8s  unit\n", "metric", "q1", "median", "q3", "spread")
	for _, k := range sortedKeys(values) {
		q1, q2, q3, ok := quartiles(values[k])
		if !ok {
			fmt.Fprintf(stdout, "%-30s %14v %14s %14s %8s  %s\n", k, values[k][0], "-", "-", "-", units[k])
			continue
		}
		spread := "-"
		if q2 != 0 {
			spread = fmt.Sprintf("%.4f", (q3-q1)/q2)
		}
		fmt.Fprintf(stdout, "%-30s %14.6g %14.6g %14.6g %8s  %s\n", k, q1, q2, q3, spread, units[k])
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
