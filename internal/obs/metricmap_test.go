package obs

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// undocumentedFamilies are registered families doc.go's metric map does
// not describe yet. The list may only shrink: documenting a family means
// deleting it here, and the test fails on an entry that is documented or
// no longer registered.
var undocumentedFamilies = strings.Fields(`
	pano_abr_level_decisions_total
	pano_client_hedge_cancelled_total pano_client_hedge_issued_total
	pano_client_hedge_wins_total
	pano_edge_bytes_total pano_edge_cache_budget_bytes
	pano_edge_coalesced_total pano_edge_evictions_total
	pano_edge_hits_total pano_edge_manifest_chunks pano_edge_misses_total
	pano_edge_origin_errors_total pano_edge_origin_fetches_total
	pano_edge_outage_negatives_total pano_edge_requests_total
	pano_edge_revalidations_total pano_edge_stale_serves_total
	pano_fleet_breaker_state pano_fleet_budget_exhausted_total
	pano_fleet_failover_seconds pano_fleet_failovers_total
	pano_fleet_failures_total pano_fleet_origins_open
	pano_fleet_probes_total pano_fleet_requests_total
	pano_http_response_bytes_total
	pano_jnd_field_cache_entries pano_jnd_field_cache_evictions_total
	pano_jnd_field_cache_hits_total pano_jnd_field_cache_misses_total
	pano_planner_plans_total
	pano_runtime_gc_cycles_total pano_runtime_gc_pause_p99_seconds
	pano_runtime_goroutines pano_runtime_heap_bytes
	pano_runtime_sched_latency_p99_seconds
	pano_slo_state pano_slo_transitions_total
	pano_swarm_bytes_total pano_swarm_chunks_total
	pano_swarm_fleet_budget_denied_total pano_swarm_fleet_failovers_total
	pano_swarm_fleet_hedge_wins_total pano_swarm_fleet_hedges_total
	pano_swarm_fleet_requests_total pano_swarm_origin_peak_rps
	pano_swarm_peak_concurrency pano_swarm_rebuffer_seconds_total
	pano_swarm_retries_total pano_swarm_session_pspnr_db
	pano_swarm_sessions_total pano_swarm_tiles_skipped_total
	pano_swarm_virtual_sec
	pano_telemetry_scrape_seconds pano_telemetry_scrapes_total
	pano_telemetry_series pano_telemetry_sse_dropped_total
	pano_video_chunks pano_video_tiles_per_chunk
`)

var (
	familyLiteral = regexp.MustCompile(`"(pano_[a-z0-9_]*[a-z0-9])"`)
	// docFamily matches a family in doc.go's prose, with an optional
	// brace group: pano_x_{a,b} names pano_x_a and pano_x_b, while
	// pano_x{k,v} lists pano_x's labels.
	docFamily = regexp.MustCompile(`pano_[a-z0-9_]*(\{[a-z0-9_,]+\}[a-z0-9_]*)?`)
)

// registeredFamilies returns every pano_* family literal in the
// module's non-test Go outside benchmark/ (which only reads families
// the program registers): where a family is registered, or a
// federation hint or SLO names one.
func registeredFamilies(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	err := filepath.WalkDir(filepath.Join("..", ".."), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "benchmark", ".bench_build", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range familyLiteral.FindAllStringSubmatch(string(src), -1) {
			out[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// documentedFamilies returns every family doc.go's metric map names.
func documentedFamilies(t *testing.T) map[string]bool {
	t.Helper()
	src, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range docFamily.FindAllString(string(src), -1) {
		names := []string{m}
		if open := strings.IndexByte(m, '{'); open >= 0 {
			head, rest, _ := strings.Cut(m[open+1:], "}")
			names = []string{m[:open]}
			if strings.HasSuffix(m[:open], "_") {
				names = nil
				for _, alt := range strings.Split(head, ",") {
					names = append(names, m[:open]+alt+rest)
				}
			}
		}
		for _, n := range names {
			if !strings.HasSuffix(n, "_") { // pano_client_* is a prefix, not a family
				out[n] = true
			}
		}
	}
	return out
}

// TestMetricMapIsHonest walks doc.go's metric map against the families
// the program registers, in both directions.
func TestMetricMapIsHonest(t *testing.T) {
	reg, doc := registeredFamilies(t), documentedFamilies(t)
	allowed := map[string]bool{}
	for _, n := range undocumentedFamilies {
		allowed[n] = true
	}
	if len(reg) < 50 || len(doc) < 20 {
		t.Fatalf("scan found %d registered and %d documented families; the scan is broken", len(reg), len(doc))
	}
	var missing, undocumented, stale []string
	for n := range doc {
		if !reg[n] {
			missing = append(missing, n)
		}
	}
	for n := range reg {
		if !doc[n] && !allowed[n] {
			undocumented = append(undocumented, n)
		}
	}
	for n := range allowed {
		if doc[n] || !reg[n] {
			stale = append(stale, n)
		}
	}
	sort.Strings(missing)
	sort.Strings(undocumented)
	sort.Strings(stale)
	for _, n := range missing {
		t.Errorf("doc.go names %s, which nothing registers", n)
	}
	for _, n := range undocumented {
		t.Errorf("%s is registered but neither in doc.go nor on the undocumented list", n)
	}
	for _, n := range stale {
		t.Errorf("%s is on the undocumented list but is documented or no longer registered: delete the entry", n)
	}
}
