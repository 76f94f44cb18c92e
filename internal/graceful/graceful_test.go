package graceful

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"

	"pano/internal/client"
)

// TestServeListenerDrains: SIGTERM while a request is in flight lets
// the response finish instead of severing the connection, for an
// HTTP/1.1 client and an h2c one alike.
func TestServeListenerDrains(t *testing.T) {
	h2c := client.H2C()
	defer h2c.CloseIdleConnections()
	for _, tc := range []struct {
		name  string
		cl    *http.Client
		major int
	}{{"http1", http.DefaultClient, 1}, {"h2c", &http.Client{Transport: h2c}, 2}} {
		t.Run(tc.name, func(t *testing.T) { serveListenerDrains(t, tc.cl, tc.major) })
	}
}

func serveListenerDrains(t *testing.T, cl *http.Client, major int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "complete")
	})

	done := make(chan error, 1)
	go func() { done <- ServeListener(ln, h, 5*time.Second) }()

	respc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := cl.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			errc <- err
			return
		}
		defer resp.Body.Close()
		if resp.ProtoMajor != major {
			errc <- fmt.Errorf("answered over HTTP/%d, want HTTP/%d", resp.ProtoMajor, major)
			return
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			errc <- err
			return
		}
		respc <- string(b)
	}()

	<-started // handler is mid-request
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let Shutdown begin
	close(release)                    // now let the handler finish

	select {
	case body := <-respc:
		if body != "complete" {
			t.Errorf("in-flight response body %q, want %q", body, "complete")
		}
	case err := <-errc:
		t.Fatalf("in-flight request severed during drain: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("response never arrived")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("clean drain returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeListener did not return after drain")
	}

	// The listener is closed: new connections are refused.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestServeListenerDrainTimeout: a handler that outlives the drain
// window gets cut off and Serve reports the deadline.
func TestServeListenerDrainTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	block := make(chan struct{})
	defer close(block)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		select {
		case <-block:
		case <-r.Context().Done():
		}
	})

	done := make(chan error, 1)
	go func() { done <- ServeListener(ln, h, 100*time.Millisecond) }()
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err == nil {
			resp.Body.Close()
		}
	}()

	<-started
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != context.DeadlineExceeded {
			t.Errorf("overlong drain returned %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeListener wedged past its drain deadline")
	}
}

// TestServeBadAddr: an unusable address is a plain error, not a hang.
func TestServeBadAddr(t *testing.T) {
	if err := Serve("256.256.256.256:0", http.NotFoundHandler(), time.Second); err == nil {
		t.Fatal("bad listen address accepted")
	}
}
