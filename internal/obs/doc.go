// Package obs is the repo's zero-dependency observability layer: a
// concurrent-safe metrics registry (counters, gauges, fixed-bucket
// histograms, all with labels) rendered in Prometheus text exposition
// format, a structured event logger built on log/slog with an
// in-memory ring buffer for test assertions, and timing helpers for
// hot paths. A nil *Registry / *EventLog is a valid no-op, so library
// code takes them as plain injectable parameters and pays nothing when
// observability is disabled.
//
// The metric set mirrors the evaluation signals of the Pano paper
// (SIGCOMM 2019), so scraping a running server or simulator reproduces
// the paper's per-session time series. Every session — HTTP, sim.Run,
// swarm — runs the one client loop and emits its pano_client_*
// families; a simulated session adds exactly the three pano_sim_*
// families below, the ground truth only it can compute:
//
//	pano_client_est_pspnr_db / pano_sim_chunk_pspnr_db
//	    per-chunk viewport PSPNR as the client estimates it / as scored
//	    against the clean viewpoint trace — the quality axis of Figures
//	    13, 15; their gap is the estimation error of Figure 16(a).
//	pano_client_rebuffer_seconds_total / pano_client_buffer_sec
//	    stall time, the numerator of the buffering ratio in Figure 12's
//	    QoE comparison and the rebuffering axis of Figure 17; the
//	    playback buffer after each chunk.
//	pano_client_bytes_total / pano_tile_bytes_total
//	    downloaded volume — the bandwidth-savings axis of Figure 18.
//	pano_client_chunks_total / pano_client_chunk_download_seconds / pano_client_sessions_total
//	    chunks streamed, their download times, sessions by final status.
//	pano_client_session_{pspnr_db,mos} / pano_sim_session_{pspnr_db,mos}
//	    session mean PSPNR and its Table 3 opinion-score band, as
//	    estimated / against ground truth.
//	pano_abr_decision_seconds
//	    chunk-level decision latency (any controller), §6.1's overhead.
//	pano_abr_bw_prediction_error_ratio
//	    |predicted − actual|/actual throughput, the §8.3 robustness
//	    variable (Figure 17's throughput-error axis).
//	pano_planner_plan_seconds
//	    per-chunk tile-allocation latency (the pruning speedup of
//	    Table 2 shows up here).
//	pano_http_requests_total / pano_http_request_seconds
//	    DASH endpoint load and latency on the §6.2 server.
//	pano_http_write_errors_total
//	    response bodies that failed mid-write (truncated manifests or
//	    tiles) — previously swallowed, now visible per endpoint.
//	pano_client_tile_attempt_seconds / pano_client_tile_retries_total
//	    per-attempt tile latency (failures included) and failed attempts
//	    retried by the resilient fetch pipeline.
//	pano_client_tiles_degraded_total / pano_client_tiles_skipped_total
//	    tiles that fell down the degradation ladder (§7 re-fetch at
//	    lowest quality, then stitch-at-previous-content skip) — under
//	    sim.Config.TileLossRate too: a lost request walks the same
//	    ladder over client.VirtualNet, its re-fetch a fresh request.
//	pano_chaos_requests_total / pano_chaos_injections_total
//	    the fault-injection middleware's traffic and injected faults by
//	    endpoint and kind (error, abort, truncate, stall, latency,
//	    throttle).
//
// The live-streaming subsystem (internal/live publishing into
// internal/store, consumed by the client's live session loop) adds:
//
//	pano_live_published_chunks_total / pano_live_edge_chunk / pano_live_seq
//	    the moving live edge: chunks published, the current edge index,
//	    and the catalog head sequence (monotonic, rotates the ETag).
//	pano_live_deadline_misses_total / pano_live_degraded_publishes_total
//	    chunks published after their per-chunk deadline, and chunks the
//	    encode-time forecast dropped to the degraded uniform rung.
//	pano_live_encode_seconds / pano_live_publish_latency_seconds
//	    per-chunk JND/tiling encode time and capture→publish latency.
//	pano_live_expired_chunks_total
//	    chunks retired from the availability window (their tiles leave
//	    the catalog; blobs follow at the GC retention horizon).
//	pano_store_puts_total / pano_store_put_bytes_total / pano_store_dedup_total
//	    content-addressed blob writes, their bytes, and writes that
//	    deduplicated against an existing digest.
//	pano_store_blobs / pano_store_bytes / pano_store_gets_total
//	    resident blob count/bytes and reads.
//	pano_store_gc_runs_total / pano_store_gc_removed_total / pano_store_gc_reclaimed_bytes_total
//	    ref-counted GC activity past the retention horizon.
//	pano_store_recovered_tmp_total / pano_store_corrupt_blobs_total
//	    crash scrubbing at Open: abandoned tmp files removed and blobs
//	    whose payload no longer matches their digest (torn writes).
//	pano_store_catalog_writes_total
//	    atomic catalog-head replacements.
//	pano_client_live_edge_wait_seconds_total / pano_client_live_edge_timeouts_total
//	    time sessions spent blocked at the live edge polling for the
//	    manifest to grow (counted as each wait ends), and sessions that
//	    gave up on a dead feed (ending cleanly, never aborting).
//	pano_client_live_skips_total / pano_client_live_latency_sec
//	    chunks skipped by the low-latency policy (window expiry or
//	    skip-to-edge) and the session's current edge latency; the edge
//	    proxy's refusal to prefetch past the edge shows up as
//	    pano_edge_prefetch_total{result="live_edge"}.
//
// The companion span tracer (internal/trace, same nil-is-off
// contract) shares this taxonomy: where a metric aggregates, a span
// tree shows one session's actual timeline. Span names map to the
// paper as:
//
//	session, chunk
//	    one playback session and its per-chunk download loop — the unit
//	    of every per-chunk metric above.
//	estimate, mpc, assign
//	    the §6.1 client decision pipeline: bandwidth/viewpoint
//	    estimation, the MPC chunk-level bitrate decision
//	    (pano_abr_decision_seconds is this span aggregated), and the
//	    tile-level quality allocation (pano_planner_plan_seconds).
//	fetch
//	    the §7 transport: the chunk's tile downloads, annotated with
//	    tiles, bytes, retries, degraded and skipped tiles, and the
//	    slowest first attempt (slowest_tile, slowest_sec). Every turn
//	    GET carries this span's traceparent, so a tile's handler span
//	    parents to it; a tile whose first attempt succeeds opens no
//	    span of its own.
//	tile_fetch, attempt
//	    only where the first attempt failed: the tile's trip down the
//	    retry/degrade/skip ladder (planned level, the first attempt's
//	    first_class and first_sec, the outcome) and each later HTTP
//	    try under it — annotated with rung, deadline, backoff, and
//	    error class (pano_client_tile_attempt_seconds aggregates every
//	    attempt; its exemplars point back at these traces).
//	stitch
//	    §7's stitch-and-score step, opened only where a caller scores
//	    the delivered chunk (StreamConfig.ScoreChunk: sim.Run's scorer,
//	    whose score span's pspnr_db feeds pano_sim_chunk_pspnr_db).
//	    pano_client_est_pspnr_db is observed once per delivered chunk
//	    when the session ends, off StreamResult.MeanEstPSPNR's pass.
//	http_request
//	    the §6.2 server's handler span, stitched into the client's
//	    trace via the W3C traceparent header and annotated with any
//	    chaos-injected fault (pano_http_request_seconds aggregates it).
//
// The continuous-telemetry layer (internal/telemetry, the same
// nil-is-off contract) scrapes this registry into windowed series and
// evaluates burn-rate SLOs over the metrics above. Each default SLO
// guards one paper claim (the same map lives in each SLO's Guards
// field, shown at /debug/slo and on the dashboard):
//
//	rebuffer (rate of pano_client_rebuffer_seconds_total vs wall time)
//	    the buffering-ratio axis of Figures 12/17 — the paper's systems
//	    comparison holds stall time near zero; the SLO budgets it at 5%.
//	pspnr_floor (pano_client_session_pspnr_db >= 30 dB)
//	    the quality axis of Figures 13/15 — sessions below the Table 3
//	    MOS-2 band are the regressions those figures would show.
//	tile_p99 (p99 of pano_client_tile_attempt_seconds | pano_http_request_seconds <= 0.5s)
//	    §6.2/§8.4 serving overhead — tile fetch tail latency within half
//	    a chunk duration, the bound that keeps the §7 retry ladder off
//	    the stall path.
//	edge_hit (pano_edge_hit_ratio >= 0.5)
//	    the edge-tier offload claim measured by BENCH_edge — the cache
//	    absorbing most tile demand is what makes the §6.2 DASH-plain
//	    interface CDN-friendly in practice.
//	abort (pano_client_sessions_total{status=manifest_error|tile_error} vs all)
//	    §7's resilience claim that sessions degrade but never abort;
//	    terminal error statuses are budgeted at 2% of sessions.
//
// The federation layer (internal/telemetry's Scraper, served by
// cmd/pano-obsd) merges many processes' expositions — parsed back into
// snapshot series by ParsePrometheus — into one cluster view, and
// describes its own health in the same format:
//
//	pano_build_info{commit,go_version}
//	    constant 1 per process, stamped with the building commit (the
//	    same resolution as the BENCH_*.json provenance fields) — count
//	    the distinct commit labels across instances to spot a
//	    mixed-build fleet.
//	pano_federation_target_up{instance}
//	    1 while the target's last scrape succeeded, 0 once it fails; a
//	    down target's series freeze at their last-good values in the
//	    rollup instead of vanishing, so cluster rates dip only when the
//	    work stopped, not when the scrape did.
//	pano_federation_scrapes_total / pano_federation_scrape_errors_total
//	    per-instance scrape attempts and failures.
//	pano_federation_targets / pano_federation_stale_targets
//	    configured targets and how many are currently frozen.
//	pano_federation_unmergeable_families
//	    histogram families excluded from the cluster rollup because
//	    instances disagree on bucket layout (their per-instance series
//	    remain).
//
// The two places the observability layer could silently lose data
// count what they lose, each under one name:
//
//	pano_events_dropped_total
//	    events the event log's ring overwrote — every push past its
//	    capacity, read or not (wired by EventLog.ObserveDrops).
//	pano_trace_dropped_spans_total
//	    spans the tracer's bounded store rejected (over the per-trace
//	    span cap or the active-trace cap), beside pano_trace_spans_total
//	    and pano_trace_traces_total, the spans it stored and the traces
//	    it completed.
//
// Histograms accept an optional exemplar per observation
// (ObserveExemplar): the trace ID of the most recent observation in
// each bucket, rendered as "# exemplar" comment lines alongside the
// Prometheus exposition, linking a latency bucket to a concrete trace
// at /debug/traces. Counters hold one (IncExemplar).
//
// The layer has one of each: WritePrometheusSeries is the only
// exposition writer (a registry renders its Snapshot, exemplars
// included; pano-obsd renders its merged view), and Ring is the only
// bounded buffer (the event log, telemetry's windowed series, the
// trace store's eviction order).
//
// Wiring: internal/server mounts /metrics, /debug/events, and
// /debug/traces; client.RunSession (under Stream, sim.Run and swarm)
// takes a *Registry (nil = off), and its per-session watcher records
// every phase;
// cmd/pano-server adds optional net/http/pprof; cmd/pano-obsd
// federates every process's /metrics into the cluster view above.
package obs
