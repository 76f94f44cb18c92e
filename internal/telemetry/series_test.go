package telemetry

import (
	"math"
	"sync"
	"testing"
	"time"

	"pano/internal/obs"
)

var t0 = time.Unix(1700000000, 0)

func at(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

// scrape advances the store by one synthetic tick.
func scrape(st *Store, reg *obs.Registry, sec int) { st.Observe(at(sec), reg.Snapshot()) }

func TestCounterSeriesWindowedDelta(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(64)
	c := reg.Counter("reqs_total", "requests")
	for i := 0; i < 10; i++ {
		c.Add(2) // +2 per second
		scrape(st, reg, i)
	}
	fam := st.Family("reqs_total")
	if len(fam) != 1 {
		t.Fatalf("family size = %d, want 1", len(fam))
	}
	s := fam[0]
	// Window covering the last 5 samples: 5 ticks of +2 (t=5..9 vs t=4).
	d, ok := s.DeltaSince(at(4))
	if !ok || d != 10 {
		t.Errorf("DeltaSince(t4) = %v,%v, want 10,true", d, ok)
	}
	// Window wider than history clamps to the oldest sample.
	d, ok = s.DeltaSince(at(-100))
	if !ok || d != 18 {
		t.Errorf("DeltaSince(clamped) = %v,%v, want 18,true", d, ok)
	}
}

func TestCounterResetHandling(t *testing.T) {
	st := NewStore(8)
	key := "c\xff"
	_ = key
	sn := func(v float64, sec int) {
		st.Observe(at(sec), []obs.SnapshotSeries{{Name: "c", Type: "counter", Key: "", Value: v}})
	}
	sn(100, 0)
	sn(120, 1)
	sn(5, 2) // process restarted: cumulative dropped below the window start
	s := st.Family("c")[0]
	d, ok := s.DeltaSince(at(0))
	if !ok || d != 5 {
		t.Errorf("post-reset DeltaSince = %v,%v, want 5,true (count from zero)", d, ok)
	}
}

func TestGaugeSeriesAndViolationFrac(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(64)
	g := reg.Gauge("pspnr_db", "quality")
	vals := []float64{40, 38, 25, 22, 35, 41} // 2 of 6 below a floor of 30
	for i, v := range vals {
		g.Set(v)
		scrape(st, reg, i)
	}
	frac, n := st.ViolationFrac([]string{"pspnr_db"}, at(-1), 30, false)
	if n != 6 || math.Abs(frac-2.0/6) > 1e-9 {
		t.Errorf("floor ViolationFrac = %v over %d, want 1/3 over 6", frac, n)
	}
	// Ceiling direction: samples above 39.
	frac, n = st.ViolationFrac([]string{"pspnr_db"}, at(-1), 39, true)
	if n != 6 || math.Abs(frac-2.0/6) > 1e-9 {
		t.Errorf("ceil ViolationFrac = %v over %d, want 1/3 over 6", frac, n)
	}
	// Window restriction: only the last two samples.
	frac, n = st.ViolationFrac([]string{"pspnr_db"}, at(4), 30, false)
	if n != 2 || frac != 0 {
		t.Errorf("windowed ViolationFrac = %v over %d, want 0 over 2", frac, n)
	}
	// Missing family: no data.
	if _, n := st.ViolationFrac([]string{"absent"}, at(0), 1, false); n != 0 {
		t.Errorf("absent family n = %d, want 0", n)
	}
}

func TestRingWrapAround(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(4)
	g := reg.Gauge("g", "g")
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		scrape(st, reg, i)
	}
	pts := st.Family("g")[0].Points()
	if len(pts) != 4 {
		t.Fatalf("retained %d points, want 4", len(pts))
	}
	for i, p := range pts {
		if want := float64(6 + i); p.V != want {
			t.Errorf("pts[%d].V = %v, want %v (oldest-first after wrap)", i, p.V, want)
		}
	}
	last, ok := st.Family("g")[0].Last()
	if !ok || last.V != 9 {
		t.Errorf("Last = %v,%v, want 9,true", last.V, ok)
	}
}

func TestHistSeriesWindowedQuantile(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(64)
	h := reg.Histogram("lat_seconds", "latency", []float64{0.1, 0.2, 0.4, 0.8})

	// First epoch: all observations fast.
	for i := 0; i < 100; i++ {
		h.Observe(0.05)
	}
	scrape(st, reg, 0)
	// Second epoch: slow tail appears.
	for i := 0; i < 90; i++ {
		h.Observe(0.05)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.7)
	}
	scrape(st, reg, 10)

	hs := st.HistFamily("lat_seconds")[0]
	// Full-history window includes both epochs.
	if _, n, _ := hs.deltaSince(at(-1)); n != 100 {
		t.Errorf("full-window count = %d, want 100 (delta vs first snapshot)", n)
	}
	// The windowed p99 sees the recent tail; the first epoch's 100 fast
	// observations are outside the delta and cannot dilute it.
	q, ok := hs.QuantileSince(0.99, at(5))
	if !ok {
		t.Fatal("QuantileSince: no data")
	}
	if q <= 0.4 || q > 0.8 {
		t.Errorf("windowed p99 = %v, want in (0.4, 0.8]", q)
	}
	// p50 of the window is still fast.
	if q, _ := hs.QuantileSince(0.5, at(5)); q > 0.1 {
		t.Errorf("windowed p50 = %v, want <= 0.1", q)
	}
}

func TestQuantileMaxAcrossFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(16)
	fast := reg.Histogram("client_seconds", "c", []float64{0.1, 1})
	slow := reg.Histogram("server_seconds", "s", []float64{0.1, 1}, obs.L("endpoint", "tile"))
	scrape(st, reg, 0)
	for i := 0; i < 100; i++ {
		fast.Observe(0.05)
		slow.Observe(0.9)
	}
	scrape(st, reg, 1)
	q, ok := st.QuantileMax([]string{"client_seconds", "server_seconds"}, 0.99, at(0))
	if !ok {
		t.Fatal("QuantileMax: no data")
	}
	if q <= 0.1 {
		t.Errorf("QuantileMax = %v, want the slower family's tail (> 0.1)", q)
	}
	if _, ok := st.QuantileMax([]string{"absent"}, 0.99, at(0)); ok {
		t.Errorf("absent family should report no data")
	}
}

func TestDeltaSumLabelMatching(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(16)
	okC := reg.Counter("sessions_total", "s", obs.L("status", "ok"))
	errC := reg.Counter("sessions_total", "s", obs.L("status", "tile_error"))
	scrape(st, reg, 0)
	okC.Add(98)
	errC.Add(2)
	scrape(st, reg, 1)

	bad, has := st.DeltaSum([]string{"sessions_total"}, "status", []string{"tile_error"}, at(0))
	if !has || bad != 2 {
		t.Errorf("bad DeltaSum = %v,%v, want 2,true", bad, has)
	}
	total, has := st.DeltaSum([]string{"sessions_total"}, "", nil, at(0))
	if !has || total != 100 {
		t.Errorf("total DeltaSum = %v,%v, want 100,true", total, has)
	}
	if v, has := st.DeltaSum([]string{"sessions_total"}, "status", []string{"nope"}, at(0)); has || v != 0 {
		t.Errorf("unmatched label DeltaSum = %v,%v, want 0,false", v, has)
	}
}

// TestStoreConcurrentScrapeAndRead hammers every read accessor while
// Observe keeps appending — the exact interleaving of a sampler tick
// racing an HTTP dashboard snapshot. The readers resolve their
// *Series/*HistSeries pointers ONCE and hold them across scrapes
// (as serveSSE and the SLO evaluator do), so nothing but the
// per-series locks orders the ring accesses; run under -race this
// locks that guarantee down.
func TestStoreConcurrentScrapeAndRead(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(32)
	c := reg.Counter("reqs_total", "r")
	g := reg.Gauge("depth", "d")
	h := reg.Histogram("lat_seconds", "l", []float64{0.1, 1})
	c.Add(1)
	g.Set(1)
	h.Observe(0.05)
	st.Observe(at(0), reg.Snapshot())

	counters := st.Family("reqs_total")
	gauges := st.Family("depth")
	hists := st.HistFamily("lat_seconds")
	if len(counters) == 0 || len(gauges) == 0 || len(hists) == 0 {
		t.Fatal("setup: series missing after first scrape")
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Add(1)
			g.Set(float64(i))
			h.Observe(0.2)
			st.Observe(at(i), reg.Snapshot())
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 300; i++ {
				for _, s := range counters {
					s.Points()
					s.Last()
					s.Oldest()
					s.DeltaSince(at(0))
				}
				for _, s := range gauges {
					s.Points()
					s.Last()
				}
				for _, hs := range hists {
					hs.QuantileSince(0.99, at(0))
				}
				st.DeltaSum([]string{"reqs_total"}, "", nil, at(0))
				st.ViolationFrac([]string{"depth"}, at(0), 5, true)
				st.QuantileMax([]string{"lat_seconds"}, 0.99, at(0))
				st.EarliestSample([]string{"reqs_total", "depth"})
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

func TestStoreEarliestSample(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(4)
	if _, ok := st.EarliestSample([]string{"g"}); ok {
		t.Error("empty store reported a sample")
	}
	g := reg.Gauge("g", "g")
	for i := 0; i < 10; i++ {
		g.Set(float64(i))
		scrape(st, reg, i)
	}
	// The 4-deep ring retains t6..t9: the earliest must track eviction.
	got, ok := st.EarliestSample([]string{"g"})
	if !ok || !got.Equal(at(6)) {
		t.Errorf("EarliestSample = %v,%v, want %v,true", got, ok, at(6))
	}
}

func TestStoreObserveNewSeriesMidStream(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(16)
	reg.Gauge("a", "a").Set(1)
	scrape(st, reg, 0)
	reg.Gauge("b", "b").Set(2) // appears only on the second scrape
	scrape(st, reg, 1)
	if st.Len() != 2 {
		t.Errorf("Len = %d, want 2", st.Len())
	}
	if pts := st.Family("b")[0].Points(); len(pts) != 1 || pts[0].V != 2 {
		t.Errorf("late series points = %v", pts)
	}
	names := st.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v, want [a b]", names)
	}
}
