package pipeline

// FullReplayReference returns cfg with every TDR audit scored from a
// full replay from virtual time zero, compared over the same window:
// the reference semantics windowed replay must reproduce byte for
// byte. It pays full-replay cost for a windowed answer.
func FullReplayReference(cfg Config) Config {
	cfg.fullReplay = true
	return cfg
}

// ChunkJobs is the dispatch unit, in jobs of one shard.
const ChunkJobs = chunkJobs

// RunaheadJobs is how far past the first unemitted verdict a run of
// the given worker count dispatches.
func RunaheadJobs(workers int) int { return runaheadJobs(workers) }
