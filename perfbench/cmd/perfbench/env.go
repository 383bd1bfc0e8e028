package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"freshsource/internal/dataset"
	"freshsource/internal/serve"
)

// World parameters: freshd's default generated BL world.
const (
	worldKind  = "bl"
	worldScale = 0.5
)

func genWorld(seed int64) (*dataset.Dataset, error) {
	return serve.LoadDataset("", worldKind, worldScale, seed)
}

// liveServer is a serve.Server running on a loopback listener.
type liveServer struct {
	srv  *serve.Server
	base string
	stop context.CancelFunc
	done chan error
}

// startServer builds a server over d and serves it on 127.0.0.1:0.
func startServer(d *dataset.Dataset, cfg serve.Config) (*liveServer, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	return startServerOn(ln, d, cfg)
}

// startServerOn builds a server over d and serves it on ln.
func startServerOn(ln net.Listener, d *dataset.Dataset, cfg serve.Config) (*liveServer, error) {
	srv, err := serve.New(d, cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return serveListener(ln, srv, srv.Handler(), true), nil
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serveOn serves h on a fresh loopback listener (see serveListener).
func serveOn(srv *serve.Server, h http.Handler, own bool) (*liveServer, error) {
	ln, err := listenLoopback()
	if err != nil {
		if srv != nil {
			srv.Close()
		}
		return nil, err
	}
	return serveListener(ln, srv, h, own), nil
}

// serveListener serves h on ln. With own set, srv.Serve runs the listener
// (and the ingest scheduler, when enabled); otherwise a plain http.Server
// does, so the benchmark can wrap the handler.
func serveListener(ln net.Listener, srv *serve.Server, h http.Handler, own bool) *liveServer {
	ctx, cancel := context.WithCancel(context.Background())
	ls := &liveServer{srv: srv, base: "http://" + ln.Addr().String(), stop: cancel, done: make(chan error, 1)}
	if own {
		go func() { ls.done <- srv.Serve(ctx, ln) }()
		return ls
	}
	hs := &http.Server{Handler: h}
	go func() {
		err := hs.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		ls.done <- err
	}()
	go func() {
		<-ctx.Done()
		sctx, c := context.WithTimeout(context.Background(), 10*time.Second)
		defer c()
		hs.Shutdown(sctx)
		if srv != nil {
			srv.Close()
		}
	}()
	return ls
}

// close stops the server and waits for it to drain.
func (ls *liveServer) close() error {
	ls.stop()
	return <-ls.done
}

// newClient returns a keep-alive loopback client.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// call performs one request and returns the status and full body.
func call(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if t := activeTracer.Load(); t != nil {
		defer t.start("client."+req.URL.Path, 0, 0).end()
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshal %T: %v", v, err))
	}
	return b
}

// tenantURL appends ?tenant= when name is set.
func tenantURL(base, path, tenant string) string {
	if tenant == "" {
		return base + path
	}
	return base + path + "?tenant=" + tenant
}

// metricsSnapshot reads the obs counters through /metrics?format=json.
func metricsSnapshot(c *http.Client, base string) (map[string]int64, error) {
	code, body, err := call(c, http.MethodGet, base+"/metrics?format=json", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return snap.Counters, nil
}

// counterDelta is after − before per counter name.
func counterDelta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}
