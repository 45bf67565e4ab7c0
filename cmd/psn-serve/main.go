// Command psn-serve exposes the repository's experiments as an HTTP
// JSON service: path enumeration and forwarding simulation over a
// dataset registry with cached per-dataset artifacts. Figures are
// rendered by psn-figures; the server only lists them.
//
// Usage:
//
//	psn-serve                                  # serve built-ins on :8080
//	psn-serve -addr :9090 -workers 8
//	psn-serve -trace office=office.txt         # add a file-backed dataset
//	psn-serve -max-inflight 32 -cache-size 512
//	psn-serve -trace-slow 250ms                # log requests slower than 250 ms
//	psn-serve -trace-slow 1ns                  # log every request
//	psn-serve -selfcheck                       # smoke: serve, query, compare, exit
//
// Endpoints: GET /datasets, POST /enumerate, POST /simulate,
// GET /figures, GET /healthz, GET /metrics.
// See the README's "Serving" section for request shapes and the
// caching/determinism guarantees.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	psn "repro"
	"repro/internal/pathenum"
	"repro/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "engine worker goroutines every request runs on (0 = GOMAXPROCS; results are identical)")
		maxInflight  = flag.Int("max-inflight", 0, "max experiment requests in flight (0 = 4x GOMAXPROCS, <0 = unlimited); excess requests get 503")
		cacheSize    = flag.Int("cache-size", 0, "memoized-result LRU entries (0 = 256, <0 = disable)")
		selfcheck    = flag.Bool("selfcheck", false, "start on an ephemeral port, verify /healthz and /enumerate against the library, and exit")
		enablePprof  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (bypasses the in-flight limit)")
		traceSlow    = flag.Duration("trace-slow", 0, "log one structured line (request ID, endpoint, dataset, status, latency, stage breakdown) per request at least this slow (0 = off; 1ns logs every request), e.g. -trace-slow 250ms")
		reqTimeout   = flag.Duration("request-timeout", 0, "deadline per experiment request: compute abandons cooperatively and the client gets 503 + Retry-After (0 = 30s, <0 = no deadline)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound: /healthz flips to 503 and in-flight requests get this long to finish")
	)
	reg := psn.NewRegistry()
	flag.Func("trace", "register a file-backed dataset as name=path (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		return reg.RegisterFile(name, path)
	})
	flag.Parse()

	srv := psn.NewServer(psn.ServeConfig{
		Registry:       reg,
		Workers:        *workers,
		MaxInflight:    *maxInflight,
		CacheSize:      *cacheSize,
		EnablePprof:    *enablePprof,
		TraceSlow:      *traceSlow,
		RequestTimeout: *reqTimeout,
		Logger:         slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})

	if *selfcheck {
		if err := runSelfcheck(srv); err != nil {
			fmt.Fprintln(os.Stderr, "psn-serve: selfcheck:", err)
			os.Exit(1)
		}
		fmt.Println("selfcheck ok")
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("psn-serve: %v", err)
	}
	// The machine-parseable bound address, on stdout by contract (all
	// logging goes to stderr): scripts read this line to learn
	// ephemeral ports (-addr :0) without a race.
	fmt.Printf("ADDR=%s\n", ln.Addr())
	os.Stdout.Sync()

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("psn-serve: listening on %s (datasets: %s)", ln.Addr(), strings.Join(reg.Names(), ", "))
		errc <- hs.Serve(ln)
	}()
	select {
	case err := <-errc:
		log.Fatalf("psn-serve: %v", err)
	case <-ctx.Done():
	}
	// Graceful shutdown: flip /healthz to 503 first so load balancers
	// drain traffic away, then stop accepting and give in-flight
	// requests -drain-timeout to finish.
	log.Print("psn-serve: draining")
	srv.SetDraining(true)
	shctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil {
		log.Fatalf("psn-serve: shutdown: %v", err)
	}
	log.Print("psn-serve: drained")
}

// runSelfcheck starts the server on an ephemeral port, hits /healthz
// and one /enumerate request, and verifies the served response is
// byte-identical to the direct library call — the end-to-end
// determinism contract, exercised over a real TCP socket.
func runSelfcheck(srv *psn.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-done
	}()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: status %d: %s", resp.StatusCode, body)
	}
	var health service.HealthResponse
	if err := json.Unmarshal(body, &health); err != nil {
		return fmt.Errorf("/healthz: %v", err)
	}
	if health.Status != "ok" {
		return fmt.Errorf("/healthz: status %q", health.Status)
	}

	reqBody := `{"dataset":"dev","src":0,"dst":17,"start":0,"k":50}`
	resp, err = http.Post(base+"/enumerate", "application/json", strings.NewReader(reqBody))
	if err != nil {
		return err
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/enumerate: status %d: %s", resp.StatusCode, served)
	}

	direct, err := srv.Enumerate("dev", []pathenum.Message{{Src: 0, Dst: 17, Start: 0}}, pathenum.Options{K: 50})
	if err != nil {
		return fmt.Errorf("direct enumerate: %v", err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		return err
	}
	want = append(want, '\n')
	if !bytes.Equal(served, want) {
		return errors.New("served /enumerate response differs from the direct library call")
	}
	if len(direct.Results) != 1 || !direct.Results[0].Found {
		return errors.New("enumerate found no path on the dev trace")
	}
	return nil
}
