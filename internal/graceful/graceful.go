// Package graceful runs an http.Server until SIGINT/SIGTERM, then
// drains in-flight requests instead of severing them — for a tile
// server, a kill signal mid-chunk would otherwise truncate media bodies
// and force every attached client down its retry ladder at once.
package graceful

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// DefaultDrain bounds how long Shutdown waits for in-flight responses.
const DefaultDrain = 10 * time.Second

// Stopper is anything with background work to halt once the HTTP
// server has drained — telemetry samplers, prefetchers, pollers. The
// telemetry.Sampler satisfies it directly.
type Stopper interface{ Stop() }

// Serve listens on addr and serves h until the process receives SIGINT
// or SIGTERM, then shuts down gracefully, waiting up to drain for
// in-flight requests (drain <= 0 selects DefaultDrain). After the
// drain, each stop is called in order — request handling has ceased by
// then, so stoppers never race in-flight traffic. It returns nil after
// a clean drain, context.DeadlineExceeded if the drain timed out
// (remaining connections were closed), or the listen error.
func Serve(addr string, h http.Handler, drain time.Duration, stop ...Stopper) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return ServeListener(ln, h, drain, stop...)
}

// Protocols is what every server of the repo speaks on its one port:
// HTTP/1.1, for any client, and HTTP/2 without TLS by prior knowledge
// (h2c), for client.NewH2C's sessions, each then one connection.
func Protocols() *http.Protocols {
	p := new(http.Protocols)
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	return p
}

// ServeListener is Serve over an existing listener (tests use it to
// learn the bound port before serving).
func ServeListener(ln net.Listener, h http.Handler, drain time.Duration, stop ...Stopper) error {
	if drain <= 0 {
		drain = DefaultDrain
	}
	// Catch signals before the first request can be served: a SIGTERM
	// landing between Serve and Notify would kill the process outright.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	srv := &http.Server{Handler: h, Protocols: Protocols()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	stopAll := func() {
		for _, s := range stop {
			if s != nil {
				s.Stop()
			}
		}
	}

	select {
	case err := <-errc:
		// Serve never returns nil; anything here is a real listen/accept
		// failure (Shutdown hasn't been called yet).
		stopAll()
		return err
	case <-sig:
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err := srv.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) {
			srv.Close()
		}
		<-errc // reap the Serve goroutine (returns ErrServerClosed)
		stopAll()
		return err
	}
}
