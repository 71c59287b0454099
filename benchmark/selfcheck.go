package main

// selfcheck.go: the A/A test. Two sets of runs of the same binary,
// alternating, must agree within the benchmark's own bounds; a metric
// that cannot do that on this box does not belong among the gated ones.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is what the driver uses.
func quartiles(values []float64) (q1, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0]
	}
	at := func(i int) float64 {
		j, delta := i*(ld+1)/4, i*(ld+1)%4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// childRun is what selfcheck reads from one run of the binary.
type childRun struct {
	res   result
	state string
}

func runChild(exe, workload string, seed int, secs float64) (childRun, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childRun{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var c childRun
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if s, ok := strings.CutPrefix(last, "state_sha256="); ok {
			c.state = s
		}
	}
	if err := json.Unmarshal([]byte(last), &c.res); err != nil {
		return childRun{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return c, nil
}

// worsening is how much worse b is than a, as a share of a.
func worsening(m metricSpec, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck runs sets A and B of runs runs of every workload, run i of
// both sets with seed i+1 and the set that goes first alternating, and
// prints for each metric the set medians, the quartile spread of each
// set as a share of its median, and the gap between the medians against
// the bound. It returns the process exit code.
func selfCheck(w io.Writer, runs int, secs float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	misses := 0
	for _, wl := range workloads {
		values := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			var states [2]string
			for k := 0; k < 2; k++ {
				set := (i + k) % 2
				c, err := runChild(exe, wl.Name, i+1, secs)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					return 1
				}
				for name, v := range c.res.Metrics {
					values[set][name] = append(values[set][name], v.Value)
				}
				states[set] = c.state
			}
			if states[0] != states[1] || states[0] == "" {
				fmt.Fprintf(w, "MISS %s seed %d: state_sha256 %q vs %q\n", wl.Name, i+1, states[0], states[1])
				misses++
			}
		}
		fmt.Fprintf(w, "%s (%d runs per set)\n", wl.Name, runs)
		fmt.Fprintf(w, "  %-22s %12s %12s %8s %8s %8s %6s\n", "metric", "median A", "median B", "iqr A", "iqr B", "gap", "bound")
		for _, m := range endToEnd {
			a, b := values[0][m.Name], values[1][m.Name]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			sa, sb := (a3-a1)/ma, (b3-b1)/mb
			gap := max(worsening(m, ma, mb), worsening(m, mb, ma))
			verdict := ""
			if gap > m.Bound || (m.Name != "setup_s" && max(sa, sb) > m.Bound) {
				verdict = "  MISS"
				misses++
			}
			fmt.Fprintf(w, "  %-22s %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
				m.Name, ma, mb, 100*sa, 100*sb, 100*gap, 100*m.Bound, verdict)
		}
	}
	if misses > 0 {
		fmt.Fprintf(w, "selfcheck: %d misses\n", misses)
		return 1
	}
	fmt.Fprintln(w, "selfcheck: ok")
	return 0
}
