package nettrace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSynthesizeLTEMeanAndShape(t *testing.T) {
	for _, target := range []float64{0.71, 1.05} {
		tr := SynthesizeLTE(1, 600, target)
		if len(tr.Mbps) != 600 {
			t.Fatalf("len = %d", len(tr.Mbps))
		}
		if m := tr.Mean(); math.Abs(m-target) > 1e-9 {
			t.Errorf("mean = %v, want %v", m, target)
		}
		// Real LTE traces fluctuate: coefficient of variation well
		// above zero.
		var s, s2 float64
		for _, v := range tr.Mbps {
			s += v
			s2 += v * v
		}
		mean := s / float64(len(tr.Mbps))
		std := math.Sqrt(s2/float64(len(tr.Mbps)) - mean*mean)
		if std/mean < 0.15 {
			t.Errorf("CoV = %v, want bursty trace", std/mean)
		}
		for i, v := range tr.Mbps {
			if v <= 0 {
				t.Fatalf("non-positive bandwidth at %d", i)
			}
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := SynthesizeLTE(7, 100, 1)
	b := SynthesizeLTE(7, 100, 1)
	for i := range a.Mbps {
		if a.Mbps[i] != b.Mbps[i] {
			t.Fatal("same seed should match")
		}
	}
	c := SynthesizeLTE(8, 100, 1)
	same := true
	for i := range a.Mbps {
		if a.Mbps[i] != c.Mbps[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestBandwidthAtWraps(t *testing.T) {
	tr := &Trace{Mbps: []float64{1, 2, 3}}
	if tr.BandwidthAt(0) != 1e6 || tr.BandwidthAt(1500*time.Millisecond) != 2e6 || tr.BandwidthAt(time.Second-1) != 1e6 {
		t.Error("lookup wrong")
	}
	if tr.BandwidthAt(3*time.Second) != 1e6 || tr.BandwidthAt(4*time.Second) != 2e6 {
		t.Error("should wrap past the end")
	}
	empty := &Trace{}
	if empty.BandwidthAt(time.Second) != 0 {
		t.Error("empty trace bandwidth should be 0")
	}
}

func TestScale(t *testing.T) {
	tr := &Trace{Mbps: []float64{1, 3}}
	s := tr.Scale(4)
	if m := s.Mean(); math.Abs(m-4) > 1e-12 {
		t.Errorf("scaled mean = %v", m)
	}
	if tr.Mbps[0] != 1 {
		t.Error("Scale must not mutate the original")
	}
	z := (&Trace{Mbps: []float64{0, 0}}).Scale(5)
	if z.Mean() != 0 {
		t.Error("zero trace scales to itself")
	}
}

func TestDownloadTimeConstantRate(t *testing.T) {
	tr := &Trace{Mbps: []float64{2, 2, 2, 2}} // 2 Mbps constant
	l := NewLink(tr)
	// 1 Mbit at 2 Mbps = 0.5 s + RTT.
	if got, want := l.DownloadTime(0, 1e6), 550*time.Millisecond; got != want {
		t.Errorf("download time = %v, want %v", got, want)
	}
	// Zero bits costs one RTT.
	if l.DownloadTime(0, 0) != 50*time.Millisecond {
		t.Error("empty download should cost one RTT")
	}
}

func TestDownloadTimeVariableRate(t *testing.T) {
	// 1 Mbps for 1 s, then 4 Mbps: 3 Mbit takes 1 s + 0.5 s.
	tr := &Trace{Mbps: []float64{1, 4, 4, 4}}
	l := NewLink(tr)
	l.RTTSec = 0
	if got := l.DownloadTime(0, 3e6); got != 1500*time.Millisecond {
		t.Errorf("download time = %v, want 1.5s", got)
	}
	// Mid-interval start.
	if got := l.DownloadTime(500*time.Millisecond, 0.5e6); got != 500*time.Millisecond { // finishes exactly at t=1.0
		t.Errorf("mid-start download = %v, want 0.5s", got)
	}
	// A start one nanosecond before a sample boundary: the nanosecond at
	// 1 Mbps carries a thousandth of a bit, the rest goes at 4 Mbps, and
	// the end rounds to the nanosecond.
	if got, want := l.DownloadTime(time.Second-1, 4e6), time.Second+1; got != want {
		t.Errorf("download from a nanosecond before the boundary = %v, want %v", got, want)
	}
}

func TestDownloadTimeSurvivesZeroBandwidth(t *testing.T) {
	tr := &Trace{Mbps: []float64{0}}
	l := NewLink(tr)
	if got := l.DownloadTime(0, 1e3); got <= 0 {
		t.Fatalf("download time = %v, want a positive span", got)
	}
}

// TestNanosRoundsToTheNearestNanosecond: the one float-to-virtual-time
// rule rounds, half away from zero, rather than truncating.
func TestNanosRoundsToTheNearestNanosecond(t *testing.T) {
	for _, c := range []struct {
		sec  float64
		want time.Duration
	}{{0, 0}, {1.5, 1500 * time.Millisecond}, {0.05, 50 * time.Millisecond},
		{1e-9, 1}, {0.4e-9, 0}, {0.5e-9, 1}, {2.6e-9, 3}, {-2.6e-9, -3}} {
		if got := Nanos(c.sec); got != c.want {
			t.Errorf("Nanos(%v) = %v, want %v", c.sec, got, c.want)
		}
	}
}
func TestMeanThroughput(t *testing.T) {
	l := NewLink(&Trace{Mbps: []float64{1, 3}})
	if l.MeanThroughput() != 2e6 {
		t.Errorf("mean throughput = %v", l.MeanThroughput())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := SynthesizeLTE(3, 50, 1.05)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Mbps) != len(tr.Mbps) {
		t.Fatalf("round trip length %d vs %d", len(back.Mbps), len(tr.Mbps))
	}
	for i := range tr.Mbps {
		if math.Abs(back.Mbps[i]-tr.Mbps[i]) > 1e-3 {
			t.Fatalf("sample %d: %v vs %v", i, back.Mbps[i], tr.Mbps[i])
		}
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []string{"", "t,mbps\n", "0,abc\n", "0\n", "0,-1\n"}
	for i, c := range cases {
		if _, err := ParseCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
