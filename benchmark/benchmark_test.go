package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestBlockPctIgnoresOneStalledBlock(t *testing.T) {
	s := &samples{}
	for i := 0; i < 900; i++ {
		d := time.Duration(100+i%10) * time.Microsecond
		if i >= 300 && i < 400 { // a host stall covering one block
			d *= 50
		}
		s.add(d)
	}
	if got, want := s.blockPct(0.9), (108 * time.Microsecond).Seconds(); got != want {
		t.Errorf("blockPct(0.9) = %v, want %v", got, want)
	}
	if whole := s.pct(0.9); whole < 10*s.blockPct(0.9) {
		t.Errorf("the whole-run p90 %v should have been pulled up by the stall", whole)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "serve", Start: 0, End: 100, Parent: -1},
		{Name: "anc", Start: 200, End: 230, Parent: 0}, // children need not lie inside the parent
		{Name: "codec", Start: 50, End: 70, Parent: 0},
		{Name: "wal", Start: 300, End: 310, Parent: 1},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{50, 20, 20, 10} {
		if self[i] != want {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want)
		}
	}
	if got := byName(spans, self, "anc", true).pct(0.5); got != (20 * time.Nanosecond).Seconds() {
		t.Errorf("byName self = %v", got)
	}
	if got := byName(spans, self, "anc", false).pct(0.5); got != (30 * time.Nanosecond).Seconds() {
		t.Errorf("byName duration = %v", got)
	}
}

func TestPartitionError(t *testing.T) {
	seen := make([]bool, 5)
	if err := partitionError([][]int{{0, 3}, {1}, {4, 2}}, 5, seen); err != nil {
		t.Errorf("exact partition rejected: %v", err)
	}
	for name, clusters := range map[string][][]int{
		"missing node":  {{0, 3}, {1}, {4}},
		"node twice":    {{0, 3}, {1, 3}, {4, 2}},
		"out of range":  {{0, 3}, {1}, {4, 2, 5}},
		"negative":      {{0, 3}, {1}, {4, 2, -1}},
		"empty cluster": {{0, 3}, {1}, {}, {4, 2}},
	} {
		if err := partitionError(clusters, 5, seen); err == nil {
			t.Errorf("%s: accepted", name)
		}
		for v, s := range seen {
			if s {
				t.Fatalf("%s: scratch not cleared at %d", name, v)
			}
		}
	}
	if containsError([]int{1, 2, 3}, 2) != nil || containsError([]int{1, 3}, 2) == nil {
		t.Error("containsError")
	}
	if !sameClusters([][]int{{1, 2}, {3}}, [][]int{{1, 2}, {3}}) || sameClusters([][]int{{1, 2}, {3}}, [][]int{{2, 1}, {3}}) {
		t.Error("sameClusters")
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	graph := func(seed int64) [][2]int {
		return plantedGraph(graphN, graphM, graphK, graphMixing, rand.New(rand.NewSource(seed)))
	}
	a, b, c := graph(1), graph(1), graph(2)
	if len(a) != graphM {
		t.Fatalf("graph has %d edges, want %d", len(a), graphM)
	}
	same := len(a) == len(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs between two draws of seed 1", i)
		}
		if a[i][0] >= a[i][1] || (i > 0 && a[i] == a[i-1]) {
			t.Fatalf("edge %d = %v is not sorted, distinct and u < v", i, a[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("seeds 1 and 2 drew the same graph")
	}

	traffic := func(seed int64) string {
		d := newDigest()
		s := newStream(a, seed, d)
		batch := s.zipfBatch(nil, 256, 1)
		batch = s.uniformBatch(batch, 8, 2)
		batch = s.minuteBatch(batch, 3)
		for _, act := range batch {
			if act.U >= act.V {
				t.Fatalf("activation %v is not on an edge as listed", act)
			}
		}
		s.node(qSmallest)
		s.pair(qDistance)
		return d.sum()
	}
	if traffic(7) != traffic(7) {
		t.Error("the same seed drew different traffic")
	}
	if traffic(7) == traffic(8) {
		t.Error("seeds 7 and 8 drew the same traffic")
	}
}

// TestSpecMatchesJSON holds BENCHMARK.json to the tables in spec.go and
// to the limits of the benchmark contract.
func TestSpecMatchesJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds || len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
	if len(doc.Command) != 2 || doc.Command[0] != "bash" || doc.Command[1] != "benchmark/run.sh" {
		t.Errorf("command %v", doc.Command)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || names[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		names[n] = true
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in JSON, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.Name)
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: JSON %+v, spec %+v", i, doc.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("JSON has %d+%d metrics, spec.go %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		name(m.Name)
		j := doc.EndToEnd[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better || j.Bound != m.Bound {
			t.Errorf("end-to-end %d: JSON %+v, spec %+v", i, j, m)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q, bound %v, better %q", m.Name, m.Unit, m.Bound, m.Better)
		}
		if m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a wider bound than setup_s", m.Name)
		}
	}
	if s := endToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s", s)
	}
	for i, m := range perLayer {
		name(m.Name)
		j := doc.PerLayer[i]
		if j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer %d: JSON %+v, spec %+v", i, j, m)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	if len(perLayer) > 128 || len(data) > 64<<10 {
		t.Errorf("%d per-layer metrics, %d bytes", len(perLayer), len(data))
	}
}

func shortRun(workload string, seed int64) *run {
	r := newRun(workload, seed, runSeconds/20.0)
	r.short = true
	return r
}

// TestWorkloadsShort runs all four workloads at a twentieth of their
// length with every check on, twice, and holds the two runs to the same
// inputs and the same final state.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		var first *report
		for pass := 0; pass < 2; pass++ {
			rep, err := runWorkload(shortRun(w.Name, 3))
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if rep.chk.failed != 0 || rep.chk.attempted == 0 {
				t.Fatalf("%s: %d of %d operations failed: %v", w.Name, rep.chk.failed, rep.chk.attempted, rep.chk.messages)
			}
			res, err := assemble(endToEnd, rep.metrics, &rep.chk, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			for name, v := range res.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s: %s = %v", w.Name, name, v.Value)
				}
			}
			if first == nil {
				first = rep
			} else if rep.stateSHA != first.stateSHA || rep.inputsSHA != first.inputsSHA {
				t.Errorf("%s: two runs of seed 3 differ: state %s vs %s, inputs %s vs %s",
					w.Name, rep.stateSHA, first.stateSHA, rep.inputsSHA, first.inputsSHA)
			}
		}
	}
}

// TestTraceShort runs the traced descent of a served workload at a
// twentieth of its length: every per-layer metric must come out, and
// trace.json must hold a well-formed span tree.
func TestTraceShort(t *testing.T) {
	dir := t.TempDir()
	res, err := traceRun(shortRun("query-zoom", 3), dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("correct=%v with %d of %d metrics, %d of %d operations failed",
			res.Correct, len(res.Metrics), len(perLayer), res.Failed, res.Attempted)
	}
	data, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.Metrics) != len(perLayer) {
		t.Fatalf("%d spans, %d metrics", len(tf.Spans), len(tf.Metrics))
	}
	for i, s := range tf.Spans {
		if s.End < s.Start || s.Parent >= i || (s.Parent >= 0 && tf.Spans[s.Parent].Request != s.Request) {
			t.Fatalf("span %d is malformed: %+v", i, s)
		}
	}
}
