package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"pano/internal/obs"
)

// DashSeries is one sparkline on the dashboard: a family's recent
// samples rendered as plain values (gauges), per-interval deltas
// (counters), or windowed quantiles (histograms).
type DashSeries struct {
	Name   string    `json:"name"`
	Labels string    `json:"labels,omitempty"`
	Kind   string    `json:"kind"` // gauge | rate | p50 | p99
	Points []float64 `json:"points"`
	Last   float64   `json:"last"`
}

// DashSnapshot is one full dashboard frame, pushed over SSE each
// sampling tick and served once at page load.
type DashSnapshot struct {
	Now     time.Time          `json:"now"`
	SLOs    []SLOStatus        `json:"slos"`
	Runtime map[string]float64 `json:"runtime"`
	Series  []DashSeries       `json:"series"`
	Scrapes float64            `json:"scrapes"`
	NSeries int                `json:"n_series"`
}

const (
	dashPoints       = 120 // sparkline width in samples
	dashMaxPerFamily = 6   // label-set fan-out cap per family
)

// dashSnapshot builds the current dashboard frame from the store.
func (s *Sampler) dashSnapshot(now time.Time) DashSnapshot {
	snap := DashSnapshot{
		Now:     now,
		SLOs:    s.States(),
		Runtime: map[string]float64{},
		Scrapes: s.scrapes.Value(),
		NSeries: s.store.Len(),
	}
	for _, name := range s.store.Names() {
		switch name {
		case metricGoroutines, metricHeapBytes, metricGCPauseP99, metricSchedLatP99:
			for _, sr := range s.store.Family(name) {
				if p, ok := sr.Last(); ok {
					snap.Runtime[name] = p.V
				}
			}
		}
	}
	snap.Series = storePanels(s.store, now, s.cfg.Interval*dashPoints)
	if s.fed != nil {
		snap.Series = append(snap.Series, s.fed.dashPanels(now)...)
	}
	sort.SliceStable(snap.Series, func(i, j int) bool { return snap.Series[i].Name < snap.Series[j].Name })
	return snap
}

// storePanels renders a windowed store's families as dashboard panels:
// gauges as raw sparklines, counters as per-interval rate deltas,
// histograms as a p99 estimate over histWindow. The sampler's own
// pano_telemetry_* families are omitted (they would dominate the
// board); per-family fan-out is capped at dashMaxPerFamily. Shared by
// the per-process dashboard (dashSnapshot) and pano-obsd's
// per-instance federation panels.
func storePanels(st *Store, now time.Time, histWindow time.Duration) []DashSeries {
	var out []DashSeries
	for _, name := range st.Names() {
		if strings.HasPrefix(name, "pano_telemetry_") {
			continue
		}
		n := 0
		for _, sr := range st.Family(name) {
			if n >= dashMaxPerFamily {
				break
			}
			pts := sr.Points()
			if len(pts) == 0 {
				continue
			}
			ds := DashSeries{Name: name, Labels: labelString(sr.Labels), Kind: "gauge"}
			if sr.Kind == CounterSeries {
				ds.Kind = "rate"
			}
			start := 0
			if len(pts) > dashPoints+1 {
				start = len(pts) - dashPoints - 1
			}
			prev := pts[start]
			for _, p := range pts[start:] {
				v := p.V
				if sr.Kind == CounterSeries {
					v = p.V - prev.V
					if v < 0 {
						v = p.V // counter reset
					}
					prev = p
				}
				ds.Points = append(ds.Points, v)
			}
			if sr.Kind == CounterSeries && len(ds.Points) > 0 {
				ds.Points = ds.Points[1:] // first delta is always zero vs itself
			}
			if len(ds.Points) == 0 {
				continue
			}
			ds.Last = ds.Points[len(ds.Points)-1]
			out = append(out, ds)
			n++
		}
		for _, h := range st.HistFamily(name) {
			if n >= dashMaxPerFamily {
				break
			}
			if q, ok := h.QuantileSince(0.99, now.Add(-histWindow)); ok {
				out = append(out, DashSeries{
					Name: name, Labels: labelString(h.Labels), Kind: "p99",
					Points: []float64{q}, Last: q,
				})
				n++
			}
		}
	}
	return out
}

// labelString renders a dashboard panel's labels as k=v,k=v.
func labelString(labels []obs.Label) string {
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		parts = append(parts, l.Key+"="+l.Value)
	}
	return strings.Join(parts, ",")
}

// SLOHandler serves the SLO evaluation state as JSON (GET /debug/slo).
// Nil-safe: a nil sampler serves 404, matching an unmounted endpoint.
func (s *Sampler) SLOHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s == nil {
			http.NotFound(w, r)
			return
		}
		if !obs.AllowGetHead(w, r) {
			return
		}
		states := s.States()
		worst := StateOK
		for _, st := range states {
			switch st.State {
			case "page":
				worst = StatePage
			case "warn":
				if worst < StateWarn {
					worst = StateWarn
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodHead {
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			State string      `json:"state"`
			SLOs  []SLOStatus `json:"slos"`
		}{State: worst.String(), SLOs: states})
	})
}

// DashHandler serves the live dashboard (GET /debug/dash): a
// self-contained HTML page with canvas sparklines, SLO and runtime
// panels, updated by an SSE stream at the same path with ?stream=1.
func (s *Sampler) DashHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s == nil {
			http.NotFound(w, r)
			return
		}
		if !obs.AllowGetHead(w, r) {
			return
		}
		if r.Method == http.MethodHead {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			return
		}
		if r.URL.Query().Get("stream") == "1" {
			s.serveSSE(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, dashHTML)
	})
}

// serveSSE streams dashboard frames: one immediately, then one per
// sampling tick until the client disconnects.
func (s *Sampler) serveSSE(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("Connection", "keep-alive")

	ch, cancel := s.subscribe()
	defer cancel()

	s.mu.Lock()
	now := s.lastT
	s.mu.Unlock()
	if now.IsZero() {
		now = time.Now()
	}
	if first, err := json.Marshal(s.dashSnapshot(now)); err == nil {
		fmt.Fprintf(w, "data: %s\n\n", first)
		fl.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case payload, open := <-ch:
			if !open {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", payload)
			fl.Flush()
		}
	}
}

const dashHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>pano telemetry</title>
<style>
body{background:#0b0e14;color:#cdd6f4;font:13px/1.5 ui-monospace,Menlo,monospace;margin:0;padding:16px}
h1{font-size:15px;margin:0 0 4px}
#meta{color:#6c7086;margin-bottom:12px}
.grid{display:grid;grid-template-columns:repeat(auto-fill,minmax(300px,1fr));gap:8px}
.card{background:#11141d;border:1px solid #1e2230;border-radius:6px;padding:8px 10px}
.card .nm{color:#89b4fa;word-break:break-all}
.card .lb{color:#6c7086;font-size:11px}
.card .val{float:right;color:#a6e3a1}
canvas{width:100%;height:36px;display:block;margin-top:4px}
table{border-collapse:collapse;width:100%;margin-bottom:14px}
th,td{text-align:left;padding:3px 10px 3px 0;border-bottom:1px solid #1e2230;font-weight:normal}
th{color:#6c7086}
.ok{color:#a6e3a1}.warn{color:#f9e2af}.page{color:#f38ba8;font-weight:bold}
.rt{display:flex;gap:18px;flex-wrap:wrap;margin-bottom:14px}
.rt div b{color:#89b4fa;display:block;font-weight:normal;font-size:11px}
#state{padding:1px 8px;border-radius:4px;border:1px solid currentColor}
</style></head><body>
<h1>pano telemetry <span id="state" class="ok">ok</span></h1>
<div id="meta">connecting…</div>
<table id="slos"><thead><tr>
<th>slo</th><th>state</th><th>value</th><th>burn fast</th><th>burn slow</th><th>guards</th>
</tr></thead><tbody></tbody></table>
<div class="rt" id="rt"></div>
<div class="grid" id="grid"></div>
<script>
const hist = {};          // name|labels -> ring of recent values (client side)
const HN = 120;
function fmt(v){
  if (v === 0) return "0";
  const a = Math.abs(v);
  if (a >= 1e9) return (v/1e9).toFixed(1)+"G";
  if (a >= 1e6) return (v/1e6).toFixed(1)+"M";
  if (a >= 1e3) return (v/1e3).toFixed(1)+"k";
  if (a >= 1) return v.toFixed(2);
  if (a >= 1e-3) return (v*1e3).toFixed(2)+"m";
  return (v*1e6).toFixed(1)+"µ";
}
function spark(cv, pts){
  const ctx = cv.getContext("2d");
  const w = cv.width = cv.clientWidth, h = cv.height = cv.clientHeight;
  ctx.clearRect(0,0,w,h);
  if (pts.length < 2) return;
  let mn = Math.min(...pts), mx = Math.max(...pts);
  if (mx === mn) { mx += 1; mn -= 1; }
  ctx.beginPath();
  pts.forEach((v,i)=>{
    const x = i/(pts.length-1)*w, y = h-2-(v-mn)/(mx-mn)*(h-4);
    i ? ctx.lineTo(x,y) : ctx.moveTo(x,y);
  });
  ctx.strokeStyle = "#89b4fa"; ctx.lineWidth = 1.2; ctx.stroke();
}
function render(d){
  document.getElementById("meta").textContent =
    new Date(d.now).toLocaleTimeString()+" — "+d.n_series+" series, "+d.scrapes+" scrapes";
  let worst = "ok";
  const tb = document.querySelector("#slos tbody");
  tb.innerHTML = "";
  for (const s of d.slos){
    if (s.state === "page") worst = "page";
    else if (s.state === "warn" && worst !== "page") worst = "warn";
    const tr = document.createElement("tr");
    tr.innerHTML = "<td>"+s.name+"</td><td class='"+s.state+"'>"+s.state+"</td><td>"+
      (s.has_data?fmt(s.value):"–")+"</td><td>"+fmt(s.burn_fast)+"</td><td>"+
      fmt(s.burn_slow)+"</td><td style='color:#6c7086'>"+(s.guards||"")+"</td>";
    tb.appendChild(tr);
  }
  const st = document.getElementById("state");
  st.textContent = worst; st.className = worst;
  const rt = document.getElementById("rt");
  rt.innerHTML = "";
  for (const [k,v] of Object.entries(d.runtime||{})){
    const el = document.createElement("div");
    el.innerHTML = "<b>"+k.replace("pano_runtime_","")+"</b>"+fmt(v);
    rt.appendChild(el);
  }
  const grid = document.getElementById("grid");
  for (const s of d.series){
    const key = s.name+"|"+(s.labels||"");
    let card = document.getElementById("c_"+key);
    if (!card){
      card = document.createElement("div");
      card.className = "card"; card.id = "c_"+key;
      card.innerHTML = "<span class='nm'>"+s.name+"</span><span class='val'></span>"+
        "<div class='lb'>"+(s.labels||"")+" · "+s.kind+"</div><canvas></canvas>";
      grid.appendChild(card);
      hist[key] = [];
    }
    if (s.points.length > 1) hist[key] = s.points.slice(-HN);
    else { hist[key].push(s.last); if (hist[key].length > HN) hist[key].shift(); }
    card.querySelector(".val").textContent = fmt(s.last);
    spark(card.querySelector("canvas"), hist[key]);
  }
}
const es = new EventSource(location.pathname+"?stream=1");
es.onmessage = e => render(JSON.parse(e.data));
es.onerror = () => { document.getElementById("meta").textContent = "stream lost — reconnecting…"; };
</script></body></html>
`
