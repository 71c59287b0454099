package anc_test

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
)

// TestPerfHistory reads PERF_HISTORY.jsonl, the ledger of claimed gains:
// every row parses, carries the keys a claim needs, and pairs_won ≤ pairs.
// Run with -v to print the trajectory.
func TestPerfHistory(t *testing.T) {
	f, err := os.Open("PERF_HISTORY.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var row struct {
			PR           *int     `json:"pr"`
			Workload     string   `json:"workload"`
			Metric       string   `json:"metric"`
			ParentMedian *float64 `json:"parent_median"`
			ChangeMedian *float64 `json:"change_median"`
			PairsWon     *int     `json:"pairs_won"`
			Pairs        *int     `json:"pairs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		if row.PR == nil || row.Workload == "" || row.Metric == "" || row.ParentMedian == nil ||
			row.ChangeMedian == nil || row.PairsWon == nil || row.Pairs == nil || *row.PairsWon > *row.Pairs {
			t.Fatalf("line %d: missing or inconsistent keys: %s", line, sc.Text())
		}
		t.Logf("PR %d %s %s: %g -> %g (%d/%d pairs)", *row.PR, row.Workload, row.Metric,
			*row.ParentMedian, *row.ChangeMedian, *row.PairsWon, *row.Pairs)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}
