package anc

// Stats is an aggregate read-only snapshot of a network's shape and
// ingest progress — the payload of the serving layer's health endpoint.
// It is returned by ConcurrentNetwork.Stats and DurableNetwork.Stats so
// health checks never need Unwrap (and therefore never bypass the lock).
type Stats struct {
	// Nodes and Edges are the relation-graph dimensions.
	Nodes, Edges int
	// Levels is the number of granularity levels, SqrtLevel the Θ(√n)
	// reporting level.
	Levels, SqrtLevel int
	// Activations counts the activations applied through this wrapper;
	// for a recovered DurableNetwork it includes the WAL tail replayed by
	// Recover (activations folded into the checkpoint predate the counter).
	Activations uint64
	// Now is the network time: the largest activation timestamp seen.
	Now float64
	// WatcherDrops is the cumulative count of cluster events dropped on
	// watcher buffer overflow — never reset by DrainEvents, so loss is observable
	// without consuming events. Zero when Watch was never called.
	WatcherDrops uint64
	// CacheHits, CacheMisses and CacheInvalidations are the materialized
	// clustering cache's cumulative counters (DESIGN.md §15). All zero when
	// the cache was never enabled.
	CacheHits, CacheMisses, CacheInvalidations uint64
	// EvolutionDrops is the cumulative count of cluster-evolution events
	// overwritten in the analytics ring before being read (DESIGN.md §16)
	// — the analytics twin of WatcherDrops. Zero when analytics was never
	// enabled.
	EvolutionDrops uint64
}
