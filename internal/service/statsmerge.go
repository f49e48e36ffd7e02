package service

import (
	"sort"
	"strings"
)

// ClusterStats is the /stats payload in sharded mode: the merged counters of
// every reachable shard (same shape as a single process's Stats, so
// dashboards work unchanged) plus a per-shard breakdown keyed by ring member
// ID. Unreachable shards are listed in Unreachable rather than silently
// dropped, so a partial aggregate is distinguishable from a healthy one.
type ClusterStats struct {
	Stats
	// Shards maps ring member ID -> that shard's own Stats.
	Shards map[string]Stats `json:"shards,omitempty"`
	// Unreachable lists member IDs whose /stats fan-out call failed; their
	// counters are absent from the merged totals.
	Unreachable []string `json:"unreachable,omitempty"`
}

// MergeStats combines the counters of two shards into cluster totals. It is
// commutative and associative with the zero Stats as identity — the
// properties a fan-out aggregator needs so the result does not depend on
// which shard answered first (pinned by test). Counters and occupancy sum;
// capacities sum too, because the cluster's capacity *is* the sum of its
// shards' (that aggregate growing linearly in members is the point of
// sharding). Disk directories merge as a set union since shards may share
// one warm tier or bring their own.
func MergeStats(a, b Stats) Stats {
	var out Stats

	out.Cache.Hits = a.Cache.Hits + b.Cache.Hits
	out.Cache.Misses = a.Cache.Misses + b.Cache.Misses
	out.Cache.Evictions = a.Cache.Evictions + b.Cache.Evictions
	out.Cache.Entries = a.Cache.Entries + b.Cache.Entries
	out.Cache.Capacity = a.Cache.Capacity + b.Cache.Capacity

	out.Uploads.Parsed = a.Uploads.Parsed + b.Uploads.Parsed
	out.Uploads.Decoded = a.Uploads.Decoded + b.Uploads.Decoded

	out.Sessions.Hits = a.Sessions.Hits + b.Sessions.Hits
	out.Sessions.Misses = a.Sessions.Misses + b.Sessions.Misses
	out.Sessions.Evictions = a.Sessions.Evictions + b.Sessions.Evictions
	out.Sessions.Entries = a.Sessions.Entries + b.Sessions.Entries
	out.Sessions.Capacity = a.Sessions.Capacity + b.Sessions.Capacity
	out.Sessions.IndexBytes = a.Sessions.IndexBytes + b.Sessions.IndexBytes

	out.Streams.Live = a.Streams.Live + b.Streams.Live
	out.Streams.Capacity = a.Streams.Capacity + b.Streams.Capacity
	out.Streams.Created = a.Streams.Created + b.Streams.Created
	out.Streams.Closed = a.Streams.Closed + b.Streams.Closed
	out.Streams.Evicted = a.Streams.Evicted + b.Streams.Evicted
	out.Streams.Traces = a.Streams.Traces + b.Streams.Traces
	out.Streams.Regroupings = a.Streams.Regroupings + b.Streams.Regroupings
	out.Streams.Drifts = a.Streams.Drifts + b.Streams.Drifts

	out.Jobs.Started = a.Jobs.Started + b.Jobs.Started
	out.Jobs.Completed = a.Jobs.Completed + b.Jobs.Completed
	out.Jobs.Failed = a.Jobs.Failed + b.Jobs.Failed
	out.Jobs.Cancelled = a.Jobs.Cancelled + b.Jobs.Cancelled
	out.Jobs.Coalesced = a.Jobs.Coalesced + b.Jobs.Coalesced
	out.Jobs.Panicked = a.Jobs.Panicked + b.Jobs.Panicked
	out.Jobs.Running = a.Jobs.Running + b.Jobs.Running
	out.Jobs.Queued = a.Jobs.Queued + b.Jobs.Queued

	out.Pipeline.Runs = a.Pipeline.Runs + b.Pipeline.Runs
	out.Pipeline.Entries = a.Pipeline.Entries + b.Pipeline.Entries
	out.Pipeline.Capacity = a.Pipeline.Capacity + b.Pipeline.Capacity
	out.Pipeline.Evictions = a.Pipeline.Evictions + b.Pipeline.Evictions
	out.Pipeline.Stages = mergeStageCounters(a.Pipeline.Stages, b.Pipeline.Stages)

	out.Disk = mergeDiskStats(a.Disk, b.Disk)
	return out
}

// mergeStageCounters sums per-stage hit/miss maps. A nil map is the
// identity: two nils stay nil (not an allocated empty map), so merging with
// the zero Stats reproduces the input exactly.
func mergeStageCounters(a, b map[string]StageCounters) map[string]StageCounters {
	if a == nil && b == nil {
		return nil
	}
	out := make(map[string]StageCounters, len(a)+len(b))
	for name, c := range a {
		out[name] = c
	}
	for name, c := range b {
		prev := out[name]
		prev.Hits += c.Hits
		prev.Misses += c.Misses
		out[name] = prev
	}
	return out
}

// mergeDiskStats sums warm-tier counters; nil (no disk tier) is the
// identity. Dir becomes the sorted, comma-joined union of both sides'
// directories — order-independent, so the merge stays commutative even when
// shards use distinct data dirs.
func mergeDiskStats(a, b *DiskStats) *DiskStats {
	if a == nil && b == nil {
		return nil
	}
	if a == nil {
		cp := *b
		return &cp
	}
	if b == nil {
		cp := *a
		return &cp
	}
	out := &DiskStats{
		Dir:            unionDirs(a.Dir, b.Dir),
		IndexFiles:     a.IndexFiles + b.IndexFiles,
		IndexBytes:     a.IndexBytes + b.IndexBytes,
		ResultFiles:    a.ResultFiles + b.ResultFiles,
		SpillWrites:    a.SpillWrites + b.SpillWrites,
		SpillErrors:    a.SpillErrors + b.SpillErrors,
		WarmOpens:      a.WarmOpens + b.WarmOpens,
		WarmOpenErrors: a.WarmOpenErrors + b.WarmOpenErrors,
		ResultsSaved:   a.ResultsSaved + b.ResultsSaved,
		ResultsLoaded:  a.ResultsLoaded + b.ResultsLoaded,
	}
	return out
}

// unionDirs merges comma-joined directory lists into a deduplicated, sorted,
// comma-joined set. Sorting makes the representation canonical, which is
// what keeps Dir merging commutative and associative.
func unionDirs(a, b string) string {
	seen := map[string]bool{}
	var dirs []string
	for _, part := range strings.Split(a+","+b, ",") {
		if part == "" || seen[part] {
			continue
		}
		seen[part] = true
		dirs = append(dirs, part)
	}
	sort.Strings(dirs)
	return strings.Join(dirs, ",")
}
