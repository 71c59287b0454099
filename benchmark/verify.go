package main

// verify.go: the checks every reply goes through. A failed check fails
// the operation it belongs to; the run then reports correct=false and
// exits non-zero.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
)

// checker counts operations and failed checks, and keeps the first few
// failure messages for the report.
type checker struct {
	attempted int
	failed    int
	messages  []string
}

// ok counts one attempted operation.
func (c *checker) ok() { c.attempted++ }

// fail counts one attempted operation that failed its check.
func (c *checker) fail(format string, args ...interface{}) {
	c.attempted++
	c.failed++
	if len(c.messages) < 8 {
		c.messages = append(c.messages, fmt.Sprintf(format, args...))
	}
}

// check counts one operation, failed when err is non-nil.
func (c *checker) check(err error) {
	if err != nil {
		c.fail("%v", err)
		return
	}
	c.ok()
}

// merge folds the counts of a checker owned by another goroutine.
func (c *checker) merge(o *checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, m := range o.messages {
		if len(c.messages) < 8 {
			c.messages = append(c.messages, m)
		}
	}
}

// partitionError reports why clusters is not an exact partition of
// [0, n): every node in exactly one non-empty cluster. seen is scratch of
// length n, cleared on return.
func partitionError(clusters [][]int, n int, seen []bool) error {
	defer func() {
		for i := range seen {
			seen[i] = false
		}
	}()
	covered := 0
	for ci, cl := range clusters {
		if len(cl) == 0 {
			return fmt.Errorf("cluster %d is empty", ci)
		}
		for _, v := range cl {
			if v < 0 || v >= n {
				return fmt.Errorf("cluster %d holds node %d outside [0,%d)", ci, v, n)
			}
			if seen[v] {
				return fmt.Errorf("node %d is in two clusters", v)
			}
			seen[v] = true
			covered++
		}
	}
	if covered != n {
		return fmt.Errorf("clusters cover %d of %d nodes", covered, n)
	}
	return nil
}

// containsError reports a point reply that does not hold its query node.
func containsError(members []int, v int) error {
	for _, x := range members {
		if x == v {
			return nil
		}
	}
	return fmt.Errorf("cluster of node %d (%d members) does not contain it", v, len(members))
}

// sameClusters reports whether two cluster lists are identical, order
// included: a cached reply must be byte-identical to a recompute.
func sameClusters(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// saver is the Save surface of anc.Network and anc.ConcurrentNetwork.
type saver interface {
	Save(w io.Writer) error
}

// saveDigest is the SHA-256 of a network's Save bytes.
func saveDigest(nw saver) (string, error) {
	h := sha256.New()
	if err := nw.Save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
