// Package edge implements a caching reverse proxy that sits between
// Pano clients and the origin tile server — the cache tier the paper's
// deployment story (§7) is designed for: because Pano's manifest and
// per-tile media objects are ordinary HTTP objects addressed by
// (chunk, tile, level), any DASH-compatible cache can hold them, and a
// session population watching the same video requests heavily
// overlapping tile sets (cross-user viewpoint similarity, §5 and the
// CLS/CUB360 line of work the paper cites).
//
// The tier is built from four pieces:
//
//   - a byte-budgeted, concurrency-safe LRU cache with per-entry TTL
//     and negative-result caching (Cache);
//   - singleflight request coalescing, so N concurrent misses for the
//     same object produce exactly one origin fetch (stampede
//     protection);
//   - conditional revalidation against the origin via ETag /
//     If-None-Match with a 304 fast path, degrading to serve-stale
//     within a bounded window when the origin is faulty;
//   - a prefetcher that uses internal/viewport cross-user prediction
//     (peer-trace consensus, falling back to the edge's own observed
//     cross-user demand) to warm likely next-chunk tiles, bounded by a
//     token budget so prefetch never starves demand fetches.
//
// Every origin fetch goes through internal/fleet, one origin or many: a
// single origin is a one-shard fleet, with the same circuit breaker,
// retry budget and FetchPolicy rounds as any other, and placement,
// failover and hedging across shards when there are more. Everything is
// observable: pano_edge_* metrics, edge.lookup / edge.fill /
// edge.prefetch spans stitched into the requesting client's trace, and
// structured events. cmd/pano-edge is the runnable binary;
// the "edge" experiment measures origin offload and latency against
// direct-to-origin streaming.
package edge
