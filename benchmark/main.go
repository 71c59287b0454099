// Command benchmark is the repo benchmark: four fixed-work, closed-loop
// workloads against the public surfaces of anc, internal/serve and
// internal/serve/client, every reply verified, eleven end-to-end metrics
// per workload, and a separate traced run that descends layer by layer.
// See README.md in this directory.
//
//	go run ./benchmark -workload serve-burst -seed 1
//	go run ./benchmark -workload serve-burst -seed 1 -trace 1
//	go run ./benchmark -list
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

// result is the last line of standard output: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (see -list)")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		secs      = flag.Float64("seconds", runSeconds, "nominal length of the measured phase; operation counts scale with it")
		traced    = flag.Int("trace", 0, "1: run the traced layer descent and print the per-layer metrics instead")
		out       = flag.String("out", "", "directory for trace.json (default: a fresh temporary directory)")
		list      = flag.Bool("list", false, "print every workload and metric name with unit and direction")
		selfcheck = flag.Bool("selfcheck", false, "run two alternating sets of runs of every workload and compare them against the bounds")
		runs      = flag.Int("runs", 5, "selfcheck: runs per set and workload")
	)
	flag.Parse()
	switch {
	case *list:
		printList(os.Stdout)
		return
	case *selfcheck:
		os.Exit(selfCheck(os.Stdout, *runs, *secs))
	}
	if _, ok := workloadByName(*workload); !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; -list names them\n", *workload)
		os.Exit(2)
	}
	if *secs <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d\n", *workload, *seed, *secs, *traced, procs)

	r := newRun(*workload, *seed, *secs)
	var res result
	var err error
	if *traced == 1 {
		res, err = traceRun(r, *out, os.Stdout)
	} else {
		res, err = plainRun(r, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload dispatches one untraced run.
func runWorkload(r *run) (*report, error) {
	switch r.workload {
	case "serve-burst":
		return runServeBurst(r)
	case "query-zoom":
		return runQueryZoom(r)
	case "core-stream":
		return runCoreStream(r)
	default:
		return runCoreBatch(r)
	}
}

// plainRun runs a workload untraced and prints its report.
func plainRun(r *run, w io.Writer) (result, error) {
	rep, err := runWorkload(r)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "inputs_sha256=%s\nstate_sha256=%s\n", rep.inputsSHA, rep.stateSHA)
	fmt.Fprintf(w, "samples: ingest=%d point=%d global=%d\n", len(rep.cls.ingest.d), len(rep.cls.point.d), len(rep.cls.global.d))
	fmt.Fprintf(w, "cache: hits=%d misses=%d invalidations=%d\n", rep.cache[0], rep.cache[1], rep.cache[2])
	for _, m := range rep.chk.messages {
		fmt.Fprintf(w, "FAILED: %s\n", m)
	}
	return assemble(endToEnd, rep.metrics, &rep.chk, w)
}

// assemble builds the result line from the spec table, so a metric the
// table names and the run did not produce is an error, not a gap.
func assemble(specs []metricSpec, values map[string]float64, chk *checker, w io.Writer) (result, error) {
	res := result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.Name, v, m.Unit)
	}
	return res, nil
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-12s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (name unit better bound):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-36s %-6s %-6s %g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (name unit better):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-36s %-6s %s\n", m.Name, m.Unit, m.Better)
	}
}
