// Command ancbench regenerates the paper's tables and figures on the
// synthetic dataset counterparts.
//
// Usage:
//
//	ancbench -exp all                    # everything, default scale
//	ancbench -exp exp1                   # Table III only
//	ancbench -exp exp6batch -effn 16384  # Figure 8 at a larger scale
//
// Experiments: table1, exp1, exp2time, exp2quality, exp3, exp4, exp5,
// exp6batch, exp6day, exp6workload, casestudy, params, ablation, all.
// See EXPERIMENTS.md for the mapping to the paper's artifacts.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"anc/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run (comma separated); see doc")
		targetN = flag.Int("n", 400, "target node count for quality experiments")
		effN    = flag.Int("effn", 4096, "largest node count for efficiency experiments")
		steps   = flag.Int("steps", 60, "activation timestamps in exp2")
		sample  = flag.Int("sample", 10, "score every k-th timestamp in exp2quality")
		minutes = flag.Int("minutes", 1440, "minutes in exp6day")
		ops     = flag.Int("ops", 5000, "operations in exp6workload")
		seed    = flag.Int64("seed", 1, "random seed")
		quiet   = flag.Bool("q", false, "suppress progress lines")
	)
	flag.Parse()

	cfg := bench.Config{
		TargetN: *targetN, EffTargetN: *effN, Steps: *steps,
		SampleEvery: *sample, Seed: *seed, Quiet: *quiet,
	}
	out := os.Stdout
	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	ran := false
	run := func(name, title string, f func()) {
		if !all && !want[name] {
			return
		}
		ran = true
		fmt.Fprintf(out, "\n=== %s — %s ===\n", name, title)
		f()
	}

	run("table1", "Table I: dataset counterparts", func() {
		bench.PrintTable1(out, bench.Table1Datasets(cfg, out))
	})
	run("exp1", "Table III: static-network quality", func() {
		bench.PrintExp1(out, bench.Exp1StaticQuality(cfg, out))
	})
	run("exp2time", "Table IV: time per activation / snapshot", func() {
		bench.PrintExp2Time(out, bench.Exp2ActivationTime(cfg, out))
	})
	run("exp2quality", "Figure 4: quality over the activation stream", func() {
		pts := bench.Exp2QualitySeries(cfg, out, nil)
		bench.PrintExp2Quality(out, pts)
		seen := map[string]bool{}
		for _, p := range pts {
			if !seen[p.Dataset] {
				seen[p.Dataset] = true
				bench.ChartExp2Quality(out, pts, p.Dataset)
			}
		}
	})
	run("exp3", "Figure 5: index time vs k", func() {
		rows := bench.Exp3IndexTime(cfg, out)
		bench.PrintExp3(out, rows)
		bench.ChartExp3(out, rows)
	})
	run("exp4", "Figure 6: index memory vs k", func() {
		rows := bench.Exp4IndexMemory(cfg, out)
		bench.PrintExp4(out, rows)
		bench.ChartExp4(out, rows)
	})
	run("exp5", "Figure 7: cluster extraction time per level", func() {
		bench.PrintExp5(out, bench.Exp5QueryTime(cfg, out))
	})
	run("exp6batch", "Figure 8: UPDATE vs RECONSTRUCT", func() {
		rows := bench.Exp6UpdateVsReconstruct(cfg, out, 10)
		bench.PrintExp6Batch(out, rows)
		bench.ChartExp6Batch(out, rows)
	})
	run("exp6day", "Figure 9: bursty day of per-minute batches", func() {
		stats := bench.Exp6DiurnalUpdates(cfg, out, *minutes)
		bench.PrintExp6Day(out, stats)
		bench.ChartExp6Day(out, stats)
	})
	run("exp6workload", "Figure 10: mixed update/query workload", func() {
		rows := bench.Exp6MixedWorkload(cfg, out, *ops)
		bench.PrintExp6Workload(out, rows)
		bench.ChartExp6Workload(out, rows)
	})
	run("casestudy", "Figure 11: 30-year collaboration case study", func() {
		bench.PrintCaseStudy(out, bench.CaseStudy(cfg, out))
	})
	run("params", "Table II: parameter sensitivity", func() {
		bench.PrintParams(out, bench.ParamSensitivity(cfg, out))
	})
	run("ablation", "Design ablations (DESIGN.md)", func() {
		bench.PrintAblations(out, bench.Ablations(cfg, out))
	})

	if !ran {
		fmt.Fprintf(os.Stderr, "ancbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
