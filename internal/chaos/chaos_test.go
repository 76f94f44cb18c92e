package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"pano/internal/mathx"
	"pano/internal/obs"
)

// backend is a minimal origin: /manifest.json and /video/... answer 200
// with a fixed body and declared Content-Length, everything else 404.
func backend(bodyLen int) http.Handler {
	mux := http.NewServeMux()
	serve := func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, bodyLen)
		for i := range body {
			body[i] = byte(i)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}
	mux.HandleFunc("/manifest.json", serve)
	mux.HandleFunc("/video/", serve)
	return mux
}

func get(t *testing.T, url string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	if rerr != nil {
		return resp, body, rerr
	}
	return resp, body, nil
}

func TestDisabledProfilePassthroughIdentity(t *testing.T) {
	h := backend(64)
	in := New(Profile{})
	if got := in.Wrap(h); got != http.Handler(h) {
		t.Error("disabled profile must return the handler unchanged")
	}
	if (Profile{}).Enabled() {
		t.Error("zero profile reports enabled")
	}
}

// Draw skips the uniforms no fault can fall below and nothing else: over
// rules with zero, negative and positive rates and jitter, every outcome
// is the one drawing all five uniforms in order gives.
func TestDrawSkipsOnlyWhatCannotFire(t *testing.T) {
	drawAll := func(r Rule, seed, key, n uint64) Outcome {
		rng := mathx.NewRNG(seed ^ key ^ (n * 0x9e3779b97f4a7c15))
		uAbort, uErr, uTrunc, uStall, uJitter := rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()
		var d Outcome
		switch {
		case uAbort < r.AbortRate:
			d.Abort = true
		case uErr < r.ErrorRate:
			d.Error500 = true
		default:
			d.Truncate = uTrunc < r.TruncateRate
			d.Stall = uStall < r.StallRate
		}
		d.Latency = r.Latency + time.Duration(float64(r.Jitter)*uJitter)
		return d
	}
	for i, r := range []Rule{
		{},
		{ErrorRate: 0.3},
		{AbortRate: 0.2, StallRate: 0.4},
		{TruncateRate: 0.5, Jitter: 10 * time.Millisecond},
		{ErrorRate: 0.1, AbortRate: 0.1, TruncateRate: 0.1, StallRate: 0.1, Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond},
		{ErrorRate: 0.02, TruncateRate: 0.01, Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond},
		{AbortRate: -1, StallRate: 1, Jitter: -5 * time.Millisecond},
	} {
		for n := uint64(0); n < 2000; n++ {
			var got Outcome
			r.Draw(7, KeyString("/video/0/1/2.bin"), n, &got)
			if want := drawAll(r, 7, KeyString("/video/0/1/2.bin"), n); got != want {
				t.Fatalf("rule %d draw %d: %+v, drawing every uniform %+v", i, n, got, want)
			}
		}
	}
}

func TestDecideDeterminism(t *testing.T) {
	r := Rule{ErrorRate: 0.3, AbortRate: 0.1, TruncateRate: 0.2, StallRate: 0.2, Jitter: time.Millisecond}
	for n := uint64(0); n < 50; n++ {
		a := decide(7, "/video/0/1/2.bin", n, r)
		b := decide(7, "/video/0/1/2.bin", n, r)
		if a != b {
			t.Fatalf("attempt %d: decisions differ: %+v vs %+v", n, a, b)
		}
	}
	// Different paths draw independently.
	same := 0
	for n := uint64(0); n < 50; n++ {
		if decide(7, "/video/0/1/2.bin", n, r) == decide(7, "/video/0/2/2.bin", n, r) {
			same++
		}
	}
	if same == 50 {
		t.Error("all decisions identical across paths; draws are not path-keyed")
	}
}

func TestErrorInjectionRate(t *testing.T) {
	in := New(Profile{Seed: 3, Tile: Rule{ErrorRate: 1}})
	ts := httptest.NewServer(in.Wrap(backend(64)))
	defer ts.Close()

	resp, _, err := get(t, ts.URL+"/video/0/0/0.bin")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", resp.StatusCode)
	}
	// Non-classified endpoints pass through untouched.
	resp, _, err = get(t, ts.URL+"/manifest.json")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("manifest hit by tile rule: status %v err %v", resp.StatusCode, err)
	}
}

func TestPartialErrorRateApproximate(t *testing.T) {
	in := New(Profile{Seed: 11, Tile: Rule{ErrorRate: 0.3}})
	ts := httptest.NewServer(in.Wrap(backend(32)))
	defer ts.Close()

	fails := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		resp, _, err := get(t, ts.URL+"/video/0/0/0.bin")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusInternalServerError {
			fails++
		}
	}
	if fails < trials/6 || fails > trials/2 {
		t.Errorf("%d/%d injected errors for rate 0.3", fails, trials)
	}
	// The same seed and path replays the exact same fault sequence.
	in2 := New(Profile{Seed: 11, Tile: Rule{ErrorRate: 0.3}})
	ts2 := httptest.NewServer(in2.Wrap(backend(32)))
	defer ts2.Close()
	fails2 := 0
	for i := 0; i < trials; i++ {
		resp, _, _ := get(t, ts2.URL+"/video/0/0/0.bin")
		if resp.StatusCode == http.StatusInternalServerError {
			fails2++
		}
	}
	if fails != fails2 {
		t.Errorf("replay diverged: %d vs %d failures", fails, fails2)
	}
}

func TestAbortInjection(t *testing.T) {
	in := New(Profile{Seed: 3, Tile: Rule{AbortRate: 1}})
	ts := httptest.NewServer(in.Wrap(backend(64)))
	defer ts.Close()

	_, _, err := get(t, ts.URL+"/video/0/0/0.bin")
	if err == nil {
		t.Fatal("aborted connection should surface as a transport error")
	}
}

func TestTruncateInjection(t *testing.T) {
	in := New(Profile{Seed: 3, Tile: Rule{TruncateRate: 1}})
	ts := httptest.NewServer(in.Wrap(backend(4096)))
	defer ts.Close()

	resp, body, err := get(t, ts.URL+"/video/0/0/0.bin")
	if err == nil {
		t.Fatalf("truncated body should be a short read, got %d clean bytes", len(body))
	}
	if resp != nil && resp.StatusCode != http.StatusOK {
		t.Errorf("truncation should happen after a 200, got %d", resp.StatusCode)
	}
	if len(body) >= 4096 {
		t.Errorf("body not truncated: %d bytes", len(body))
	}
}

func TestStallInjection(t *testing.T) {
	in := New(Profile{Seed: 3, Tile: Rule{StallRate: 1, StallFor: 60 * time.Millisecond}})
	ts := httptest.NewServer(in.Wrap(backend(4096)))
	defer ts.Close()

	t0 := time.Now()
	resp, body, err := get(t, ts.URL+"/video/0/0/0.bin")
	if err != nil || resp.StatusCode != http.StatusOK || len(body) != 4096 {
		t.Fatalf("stalled response should still complete: status %v len %d err %v",
			resp.StatusCode, len(body), err)
	}
	if d := time.Since(t0); d < 60*time.Millisecond {
		t.Errorf("response in %v, expected a >=60ms mid-body stall", d)
	}
}

func TestLatencyInjection(t *testing.T) {
	in := New(Profile{Seed: 3, Tile: Rule{Latency: 50 * time.Millisecond}})
	ts := httptest.NewServer(in.Wrap(backend(32)))
	defer ts.Close()

	t0 := time.Now()
	if _, _, err := get(t, ts.URL+"/video/0/0/0.bin"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 50*time.Millisecond {
		t.Errorf("response in %v, expected >=50ms injected latency", d)
	}
}

func TestThrottleInjection(t *testing.T) {
	// 64 KiB at 4 Mbit/s should take >= ~130ms.
	in := New(Profile{Seed: 3, Tile: Rule{ThrottleBps: 4e6}})
	ts := httptest.NewServer(in.Wrap(backend(64 << 10)))
	defer ts.Close()

	t0 := time.Now()
	resp, body, err := get(t, ts.URL+"/video/0/0/0.bin")
	if err != nil || resp.StatusCode != http.StatusOK || len(body) != 64<<10 {
		t.Fatalf("throttled response broken: status %v len %d err %v", resp.StatusCode, len(body), err)
	}
	if d := time.Since(t0); d < 100*time.Millisecond {
		t.Errorf("64KiB at 4Mbps served in %v, throttle not pacing", d)
	}
}

func TestFlakyWindowSchedule(t *testing.T) {
	// Of every 10 requests the first 3 are flaky; with ErrorRate 1 that
	// is exactly 3 failures per period, deterministically.
	in := New(Profile{Seed: 3, Tile: Rule{ErrorRate: 1}, Window: Window{Period: 10, Flaky: 3}})
	ts := httptest.NewServer(in.Wrap(backend(32)))
	defer ts.Close()

	fails := 0
	for i := 0; i < 30; i++ {
		resp, _, err := get(t, ts.URL+"/video/0/0/0.bin")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusInternalServerError {
			fails++
		}
	}
	if fails != 9 {
		t.Errorf("%d failures over 3 periods, want exactly 9", fails)
	}
}

func TestMetricsAndEvents(t *testing.T) {
	reg := obs.NewRegistry()
	el := obs.NewEventLog(nil, 64)
	in := New(Profile{Seed: 3, Tile: Rule{ErrorRate: 1}}, WithObs(reg), WithEventLog(el))
	ts := httptest.NewServer(in.Wrap(backend(32)))
	defer ts.Close()

	for i := 0; i < 4; i++ {
		if _, _, err := get(t, ts.URL+"/video/0/0/0.bin"); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.CounterValue("pano_chaos_requests_total", obs.L("endpoint", "tile")); got != 4 {
		t.Errorf("requests counter = %v, want 4", got)
	}
	if got := reg.CounterValue("pano_chaos_injections_total",
		obs.L("endpoint", "tile"), obs.L("kind", "error")); got != 4 {
		t.Errorf("error injection counter = %v, want 4", got)
	}
	if e, ok := el.Last("chaos_injected"); !ok || e.Str("kind") != "error" {
		t.Errorf("no chaos_injected event logged: %v %v", e, ok)
	}
}

func TestDownSchedule(t *testing.T) {
	cases := []struct {
		d    Down
		t    time.Duration
		want bool
	}{
		{Down{Always: true}, 0, true},
		{Down{Always: true}, time.Hour, true},
		{Down{}, 0, false},
		{Down{After: time.Second, For: 2 * time.Second}, 500 * time.Millisecond, false},
		{Down{After: time.Second, For: 2 * time.Second}, time.Second, true},
		{Down{After: time.Second, For: 2 * time.Second}, 2900 * time.Millisecond, true},
		{Down{After: time.Second, For: 2 * time.Second}, 3 * time.Second, false},
		// Flapping: 1s down out of every 4s, starting at 2s.
		{Down{After: 2 * time.Second, For: time.Second, Every: 4 * time.Second}, time.Second, false},
		{Down{After: 2 * time.Second, For: time.Second, Every: 4 * time.Second}, 2500 * time.Millisecond, true},
		{Down{After: 2 * time.Second, For: time.Second, Every: 4 * time.Second}, 4 * time.Second, false},
		{Down{After: 2 * time.Second, For: time.Second, Every: 4 * time.Second}, 6500 * time.Millisecond, true},
		{Down{After: 2 * time.Second, For: time.Second, Every: 4 * time.Second}, 7500 * time.Millisecond, false},
	}
	for _, c := range cases {
		if got := c.d.At(c.t); got != c.want {
			t.Errorf("%+v.At(%v) = %v, want %v", c.d, c.t, got, c.want)
		}
	}
}

func TestDownOutageAbortsEveryPath(t *testing.T) {
	in := New(Profile{Down: Down{Always: true}})
	if !in.p.Enabled() {
		t.Fatal("down-only profile must report enabled")
	}
	ts := httptest.NewServer(in.Wrap(backend(32)))
	defer ts.Close()

	// Down takes out every path, not just the classified endpoints.
	for _, path := range []string{"/manifest.json", "/video/0/0/0.bin", "/healthz"} {
		if _, _, err := get(t, ts.URL+path); err == nil {
			t.Errorf("GET %s succeeded during a hard outage", path)
		}
	}
}

func TestDownWindowRecovers(t *testing.T) {
	// A fake clock drives the outage window: up at t=0, down during
	// [1s, 3s), up again after. Atomic because server goroutines read
	// it through WithNow while the test advances it between requests.
	var now atomic.Int64
	now.Store(time.Unix(100, 0).UnixNano())
	in := New(Profile{Down: Down{After: time.Second, For: 2 * time.Second}},
		WithNow(func() time.Time { return time.Unix(0, now.Load()) }))
	ts := httptest.NewServer(in.Wrap(backend(32)))
	defer ts.Close()

	if resp, _, err := get(t, ts.URL+"/video/0/0/0.bin"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-outage request failed: status %v err %v", resp, err)
	}
	now.Add(int64(2 * time.Second))
	if _, _, err := get(t, ts.URL+"/video/0/0/0.bin"); err == nil {
		t.Fatal("request succeeded inside the outage window")
	}
	now.Add(int64(2 * time.Second))
	if resp, _, err := get(t, ts.URL+"/video/0/0/0.bin"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("post-outage request failed: status %v err %v", resp, err)
	}
}

func TestDownSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"down=always",
		"down=1s+2s",
		"down=1s+2s/10s",
		"seed=7,down=500ms+1s,tile-error=0.1",
	} {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if !p.Down.active() {
			t.Errorf("Parse(%q): down schedule inactive: %+v", spec, p.Down)
		}
		p2, err := Parse(p.String())
		if err != nil || p2 != p {
			t.Errorf("round trip of %q changed profile: %+v vs %+v (err %v)", spec, p, p2, err)
		}
	}
	for _, bad := range []string{
		"down=", "down=1s", "down=x+1s", "down=1s+0s", "down=1s+2s/1s", "down=1s+2s/x",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	spec := "seed=7,window=20:5,manifest-error=0.05,tile-error=0.1,tile-abort=0.02," +
		"tile-truncate=0.03,tile-stall=0.04,tile-stall-for=250ms,tile-latency=2ms," +
		"tile-jitter=1ms,tile-throttle-bps=4e+06"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Window != (Window{Period: 20, Flaky: 5}) {
		t.Errorf("seed/window parsed wrong: %+v", p)
	}
	if p.Tile.ErrorRate != 0.1 || p.Tile.ThrottleBps != 4e6 || p.Tile.StallFor != 250*time.Millisecond {
		t.Errorf("tile rule parsed wrong: %+v", p.Tile)
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("canonical spec %q does not re-parse: %v", p.String(), err)
	}
	if p2 != p {
		t.Errorf("round trip changed profile:\n  %+v\n  %+v", p, p2)
	}
	if got, _ := Parse(""); got.Enabled() {
		t.Error("empty spec should be disabled")
	}
	if (Profile{}).String() != "off" {
		t.Errorf("disabled profile renders %q", Profile{}.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"tile-error", "tile-error=2", "tile-error=-0.1", "tile-error=NaN", "nope=1",
		"window=5", "tile-latency=fast", "seed=x",
		// Out of range: a negative delay would speed a request up, and
		// none of these survives Parse(p.String()).
		"tile-error=0.5,tile-latency=-1s", "tile-jitter=-1ms", "tile-stall-for=-250ms",
		"manifest-latency=-2ms", "down=-1s+2s",
		"tile-throttle-bps=-1", "tile-throttle-bps=NaN", "tile-throttle-bps=Inf", "tile-throttle-bps=-Inf",
		"window=-5:1", "window=5:-1", "window=0:3",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestDownValidate(t *testing.T) {
	cases := []struct {
		d  Down
		ok bool
	}{
		{Down{}, true},
		{Down{Always: true}, true},
		{Down{For: 10 * time.Second}, true}, // one-shot
		{Down{For: 10 * time.Second, Every: 30 * time.Second}, true}, // flapping
		{Down{For: 10 * time.Second, Every: 10 * time.Second}, false},
		{Down{For: 10 * time.Second, Every: 5 * time.Second}, false}, // degenerates to permanent
	}
	for i, c := range cases {
		if err := c.d.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate(%+v) = %v, want ok=%v", i, c.d, err, c.ok)
		}
	}
}

// FuzzParse: whatever Parse accepts and enables, String renders as a
// spec Parse reads back to the same Profile. The committed seeds under
// testdata/fuzz/FuzzParse are the out-of-range values Parse used to
// accept — negative durations, NaN or infinite rates and throttles,
// negative or zero window numbers — and seed 0, which String dropped.
func FuzzParse(f *testing.F) {
	f.Add("seed=7,tile-error=0.1,tile-latency=2ms,tile-jitter=1ms,window=20:5")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil || !p.Enabled() {
			return
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %+v renders %q, which does not parse: %v", spec, p, p.String(), err)
		}
		if q != p {
			t.Fatalf("Parse(%q) = %+v renders %q, which parses to %+v", spec, p, p.String(), q)
		}
	})
}
