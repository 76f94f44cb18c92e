package edge

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pano/internal/obs"
	"pano/internal/server"
)

// TestDebugEventsSameShapeAsOrigin: /debug/events answers with the
// {time, level, msg, attrs} schema on the edge exactly as on the origin
// (the edge's own encoder used to drop attrs), and both hold the shared
// method contract — 405 + Allow on POST, bodyless 200 on HEAD.
func TestDebugEventsSameShapeAsOrigin(t *testing.T) {
	m, _ := fixture(t)
	handlers := map[string]func(*obs.EventLog) http.Handler{
		"origin": func(el *obs.EventLog) http.Handler {
			s, err := server.New(m, server.WithEventLog(el))
			if err != nil {
				t.Fatal(err)
			}
			return s.Handler()
		},
		"edge": func(el *obs.EventLog) http.Handler {
			e, err := New(Config{Origin: "http://127.0.0.1:1", Log: el})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(e.Close)
			return e.Handler()
		},
	}
	for name, mk := range handlers {
		t.Run(name, func(t *testing.T) {
			el := obs.NewEventLog(nil, 0)
			el.Logger().Info("process_started", "addr", ":0")
			ts := httptest.NewServer(mk(el))
			defer ts.Close()

			resp, err := http.Get(ts.URL + "/debug/events")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
				t.Fatalf("status = %d, Content-Type = %q", resp.StatusCode, resp.Header.Get("Content-Type"))
			}
			var evs []struct {
				Time  string         `json:"time"`
				Level string         `json:"level"`
				Msg   string         `json:"msg"`
				Attrs map[string]any `json:"attrs"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
				t.Fatalf("not a JSON array: %v", err)
			}
			if len(evs) != 1 || evs[0].Msg != "process_started" || evs[0].Level != "INFO" ||
				evs[0].Time == "" || evs[0].Attrs["addr"] != ":0" {
				t.Errorf("events = %+v, want the one logged event with its attrs", evs)
			}

			post, err := http.Post(ts.URL+"/debug/events", "text/plain", nil)
			if err != nil {
				t.Fatal(err)
			}
			post.Body.Close()
			if post.StatusCode != http.StatusMethodNotAllowed || post.Header.Get("Allow") != "GET, HEAD" {
				t.Errorf("POST: status=%d Allow=%q", post.StatusCode, post.Header.Get("Allow"))
			}
			head, err := http.Head(ts.URL + "/debug/events")
			if err != nil {
				t.Fatal(err)
			}
			head.Body.Close()
			if head.StatusCode != http.StatusOK {
				t.Errorf("HEAD status = %d", head.StatusCode)
			}
		})
	}
}
