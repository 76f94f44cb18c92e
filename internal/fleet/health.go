package fleet

import (
	"context"
	"net/http"
	"time"

	"pano/internal/mathx"
	"pano/internal/obs"
)

// startProbes launches one health prober per origin. Each prober GETs
// the origin's /healthz at a jittered ProbeInterval and feeds the
// outcome to the breaker — so an open breaker recovers (and a quiet
// fleet notices an outage) without waiting for request traffic. The
// jitter is seeded, so two fleets with the same seed probe on the same
// schedule.
func (f *Fleet) startProbes() {
	for i := range f.ors {
		f.wg.Add(1)
		go func(i int, o *origin) {
			defer f.wg.Done()
			rng := mathx.NewRNG(f.cfg.Seed ^ 0x9ab5 ^ uint64(i)*0x9e3779b97f4a7c15)
			for {
				iv := time.Duration(float64(f.cfg.ProbeInterval) * (0.75 + 0.5*rng.Float64()))
				t := time.NewTimer(iv)
				select {
				case <-f.stop:
					t.Stop()
					return
				case <-t.C:
				}
				f.probe(i, o)
			}
		}(i, f.ors[i])
	}
}

// probe issues one /healthz GET with a deadline of half the probe
// interval, clamped to [1s, 2s] — the floor keeps a short probe period
// from doubling as an aggressive latency SLO that marks merely-loaded
// origins dead. The probe loop waits for each probe to finish, so a
// timeout longer than the interval stretches the period instead of
// piling up probes.
func (f *Fleet) probe(i int, o *origin) {
	timeout := f.cfg.ProbeInterval / 2
	if timeout < time.Second {
		timeout = time.Second
	}
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, o.url+"/healthz", nil)
	if err != nil {
		return
	}
	hc := f.cfg.HTTP
	if hc == nil {
		hc = o.cli.HTTP
	}
	ok := false
	if resp, err := hc.Do(req); err == nil {
		ok = resp.StatusCode == http.StatusOK
		resp.Body.Close()
	}
	now := f.now()
	was := o.brk.State(now)
	result := "down"
	if ok {
		o.brk.Success(now)
		result = "up"
	} else {
		o.brk.Failure(now)
	}
	if is := o.brk.State(now); is != was {
		f.cfg.Log.Logger().Warn("fleet_breaker",
			"origin", i, "url", o.url, "from", was.String(), "to", is.String(), "probe", result)
	}
	f.cfg.Obs.Counter("pano_fleet_probes_total",
		"active health probes by origin and result",
		obs.L("origin", o.label), obs.L("result", result)).Inc()
	f.refreshGauges()
}
