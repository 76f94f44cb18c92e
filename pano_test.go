package pano

import (
	"context"
	"net/http/httptest"
	"testing"
)

// TestFacadeEndToEnd exercises the full public API surface: generate,
// preprocess, simulate, serve, and stream.
func TestFacadeEndToEnd(t *testing.T) {
	opts := VideoOptions{W: 240, H: 120, FPS: 10, DurationSec: 3}
	v := GenerateVideo(Sports, 1, opts)
	tr := SynthesizeTrace(v, 2)

	m, err := Preprocess(v, []*ViewTrace{tr}, DefaultPreprocess())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumChunks() != 3 {
		t.Fatalf("chunks = %d", m.NumChunks())
	}

	link := ScaledLink(m, 0.4, 7)
	res, err := Simulate(m, tr, link, NewPanoPlanner(), DefaultSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanPSPNR <= 0 {
		t.Errorf("PSPNR = %v", res.MeanPSPNR)
	}

	srv, err := NewServer(m)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := NewClient(ts.URL)
	sres, err := cl.Stream(context.Background(), tr, StreamConfig{MaxChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Chunks) != 2 || sres.TotalBytes == 0 {
		t.Errorf("stream result: %d chunks, %d bytes", len(sres.Chunks), sres.TotalBytes)
	}
}

func TestFacadeJND(t *testing.T) {
	p := DefaultJND()
	if p.ActionRatio(JNDFactors{}) != 1 {
		t.Error("static action ratio should be 1")
	}
	if p.ActionRatio(JNDFactors{SpeedDegS: 20}) <= 1 {
		t.Error("fast motion should raise the ratio")
	}
}

func TestFacadeBaselines(t *testing.T) {
	if NewViewportPlanner().Name() == "" || NewWholePlanner().Name() == "" {
		t.Error("planners should be named")
	}
	tr := SynthesizeLTE(1, 60, 1.05)
	if tr.Mean() < 1.0 || tr.Mean() > 1.1 {
		t.Errorf("LTE mean = %v", tr.Mean())
	}
	if NewLink(tr).Trace.Mean() <= 0 {
		t.Error("link throughput")
	}
}
