// Package lint assembles the ANC analyzer suite: custom invariant
// checkers born from the paper's correctness arguments and the system's
// concurrency and durability contracts, each scoped to the part of the module
// whose contract it encodes. cmd/anclint runs Suite over ./...; `make
// lint` gates every PR on it. The stock copylocks, lostcancel and atomic
// checks are `go vet`'s, which `make check` runs beside this suite. See
// DESIGN.md §9 for the invariant behind each analyzer.
package lint

import (
	"anc/internal/lint/determinism"
	"anc/internal/lint/droppederr"
	"anc/internal/lint/floateq"
	"anc/internal/lint/goleak"
	"anc/internal/lint/hotalloc"
	"anc/internal/lint/lockdiscipline"
	"anc/internal/lint/lockorder"
	"anc/internal/lint/nakedexp"
	"anc/internal/lint/runner"
)

// Suite returns the scoped analyzer suite for this module.
func Suite() []runner.Scoped {
	return []runner.Scoped{
		{
			// All decay math routes through decay.Clock; only the decay
			// package itself may touch raw math.Exp over time.
			Analyzer: nakedexp.Analyzer,
			Exclude:  []string{"anc/internal/decay", "anc/internal/lint/..."},
		},
		{
			// Exact float equality in the numeric kernels.
			Analyzer: floateq.Analyzer,
			Include: []string{
				"anc/internal/decay",
				"anc/internal/similarity",
				"anc/internal/cluster",
				"anc/internal/pyramid",
			},
		},
		{
			// Durability code must not drop Write/Sync/Close/Flush errors:
			// the WAL, the durable/concurrent wrappers, the CLIs, and the
			// serving stack (server, client, replication, obs) and the
			// experiment harness.
			Analyzer: droppederr.Analyzer,
			Include: []string{
				"anc",
				"anc/internal/wal",
				"anc/internal/serve/...",
				"anc/internal/obs/...",
				"anc/internal/bench",
				"anc/cmd/...",
			},
		},
		{
			// In core, only the snapshot encoder persists state.
			Analyzer: droppederr.Analyzer,
			Include:  []string{"anc/internal/core"},
			Files:    []string{"snapshot*.go"},
		},
		{
			// Replay-critical packages must be deterministic. The louvain
			// baseline is included because it documents a determinism
			// contract ("nodes are scanned in ID order") and seeds DYNA.
			Analyzer: determinism.Analyzer,
			Include: []string{
				"anc/internal/core",
				"anc/internal/pyramid",
				"anc/internal/cluster",
				"anc/internal/decay",
				"anc/internal/graph",
				"anc/internal/baseline/louvain",
				// The shared backoff helper: its one wall-clock read (the
				// seed-0 fallback) must stay explicitly annotated.
				"anc/internal/serve/backoff",
			},
		},
		{
			// The concurrency wrappers live in the root package.
			Analyzer: lockdiscipline.Analyzer,
			Include:  []string{"anc"},
		},
		{
			// Lock-acquisition ordering and no blocking calls under a held
			// mutex, in every package that mixes locks with goroutines or
			// network I/O.
			Analyzer: lockorder.Analyzer,
			Include: []string{
				"anc",
				"anc/internal/serve/...",
				"anc/internal/obs/...",
				"anc/internal/wal",
			},
		},
		{
			// Every goroutine needs a provable join/stop path, everywhere
			// except the lint tree's own fixtures and helpers.
			Analyzer: goleak.Analyzer,
			Exclude:  []string{"anc/internal/lint/..."},
		},
		{
			// //anclint:hotpath bodies must not allocate. Module-wide: the
			// annotation is opt-in per function, so unannotated packages are
			// free.
			Analyzer: hotalloc.Analyzer,
			Exclude:  []string{"anc/internal/lint/..."},
		},
	}
}
