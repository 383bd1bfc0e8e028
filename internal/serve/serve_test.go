package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"freshsource/internal/core"
	"freshsource/internal/dataset"
	"freshsource/internal/obs"
	"freshsource/internal/timeline"
	"freshsource/internal/version"
)

// fixture: one small BL-like dataset per test binary (same shape as the
// core package's fixture).
var fixtureDS *dataset.Dataset

func testDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	if fixtureDS != nil {
		return fixtureDS
	}
	cfg := dataset.DefaultBLConfig()
	cfg.Locations = 8
	cfg.Categories = 5
	cfg.NumSources = 10
	cfg.Horizon = 220
	cfg.T0 = 120
	cfg.Scale = 0.4
	d, err := dataset.GenerateBL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fixtureDS = d
	return d
}

func newServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(testDataset(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t testing.TB, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func counter(name string) int64 { return obs.Active().Counter(name).Value() }

// TestSelectMatchesCLIPipeline pins the serving contract: /v1/select must
// be byte-identical to the freshselect pipeline over the same snapshot and
// options — same training window, same spread Tf, same algorithm defaults.
func TestSelectMatchesCLIPipeline(t *testing.T) {
	d := testDataset(t)
	srv := newServer(t, Config{})

	rec := postJSON(t, srv.Handler(), "/v1/select", `{}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("select: %d %s", rec.Code, rec.Body.String())
	}

	// Reference: the exact freshselect pipeline (including its explicit
	// MaxT = last spread tick, which must coincide with the registry's
	// default of horizon−1).
	ticks := SpreadTicks(d.T0, d.Horizon(), 10)
	tr, err := core.Train(d.World, d.Sources, d.T0, core.TrainOptions{MaxT: ticks[len(ticks)-1]})
	if err != nil {
		t.Fatal(err)
	}
	g, err := MakeGain("linear", "coverage", d.World.NumEntities())
	if err != nil {
		t.Fatal(err)
	}
	prob, err := core.NewProblem(tr, ticks, g, core.ProblemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := prob.Solve(core.MaxSub, core.SolveOptions{Kappa: 5, Rounds: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := SelectResponse{
		Algorithm:   string(sel.Algorithm),
		Set:         emptyNotNil(sel.Set),
		Names:       emptyNotNil(sel.Names),
		Divisors:    emptyNotNil(sel.Divisors),
		Profit:      sel.Profit,
		Gain:        sel.Gain,
		AvgCoverage: sel.AvgCoverage,
		AvgAccuracy: sel.AvgAccuracy,
		OracleCalls: sel.OracleCalls,
		Ticks:       make([]int64, len(ticks)),
	}
	for i, tk := range ticks {
		want.Ticks[i] = int64(tk)
	}
	wantBody, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	wantBody = append(wantBody, '\n')
	if !bytes.Equal(rec.Body.Bytes(), wantBody) {
		t.Errorf("served selection differs from the CLI pipeline:\n got %s\nwant %s",
			rec.Body.String(), wantBody)
	}
	if len(sel.Set) == 0 {
		t.Error("fixture selection is empty; the byte-identity check is vacuous")
	}
}

// TestWarmRegistryByteIdentical: the same request twice must return the
// same bytes, with the second served from the warm result cache.
func TestWarmRegistryByteIdentical(t *testing.T) {
	srv := newServer(t, Config{})
	req := `{"algorithm":"greedy","gain":"step","metric":"accuracy","seed":3}`

	hits0 := counter("serve.registry.result_hits")
	first := postJSON(t, srv.Handler(), "/v1/select", req)
	if first.Code != http.StatusOK {
		t.Fatalf("first: %d %s", first.Code, first.Body.String())
	}
	second := postJSON(t, srv.Handler(), "/v1/select", req)
	if second.Code != http.StatusOK {
		t.Fatalf("second: %d %s", second.Code, second.Body.String())
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Errorf("warm replay differs:\n first %s\nsecond %s", first.Body.String(), second.Body.String())
	}
	if got := counter("serve.registry.result_hits") - hits0; got != 1 {
		t.Errorf("result_hits delta = %d, want 1", got)
	}

	// An equivalent request spelled through `future` instead of explicit
	// defaults must hit the same cache entry (normalization canonicalizes).
	third := postJSON(t, srv.Handler(), "/v1/select",
		`{"algorithm":"greedy","gain":"step","metric":"accuracy","seed":3,"future":10}`)
	if !bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Error("normalized request missed the warm cache path")
	}
}

// TestQualityEndpoint checks /v1/quality against the estimator directly,
// that an identical repeat is answered byte-identically from the result
// cache, and that an equivalent request with a different tick spelling still
// reuses the cached set state.
func TestQualityEndpoint(t *testing.T) {
	d := testDataset(t)
	srv := newServer(t, Config{})

	body := `{"set":[0,2,5],"ticks":[150,200]}`
	rec := postJSON(t, srv.Handler(), "/v1/quality", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("quality: %d %s", rec.Code, rec.Body.String())
	}
	var got QualityResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}

	tr, err := srv.Registry().Trained(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := tr.Est.QualityMulti([]int{0, 2, 5}, []timeline.Tick{150, 200})
	for k, q := range ref {
		p := got.Points[k]
		if p.Coverage != q.Coverage || p.Accuracy != q.Accuracy ||
			p.LocalFreshness != q.LocalFreshness || p.GlobalFreshness != q.GlobalFreshness {
			t.Errorf("tick %d: served %+v != estimator %+v", p.Tick, p, q)
		}
	}
	if d.T0 >= 150 {
		t.Fatal("fixture T0 moved; ticks in this test are stale")
	}

	// An identical repeat short-circuits at the marshaled-result cache —
	// byte-identical, no estimator work at all.
	rhits0 := counter("serve.registry.result_hits")
	rec2 := postJSON(t, srv.Handler(), "/v1/quality", body)
	if got := counter("serve.registry.result_hits") - rhits0; got != 1 {
		t.Errorf("result_hits delta = %d, want 1", got)
	}
	if rec2.Body.String() != rec.Body.String() {
		t.Error("cached quality response is not byte-identical")
	}

	// A different tick set over the same candidate set misses the result
	// cache but reuses the memoized set state.
	hits0 := counter("serve.registry.state_hits")
	postJSON(t, srv.Handler(), "/v1/quality", `{"set":[0,2,5],"ticks":[160,210]}`)
	if got := counter("serve.registry.state_hits") - hits0; got != 1 {
		t.Errorf("state_hits delta = %d, want 1", got)
	}
}

// TestSaturation429: with the gate full, a heavy request is rejected
// immediately while /healthz stays live.
func TestSaturation429(t *testing.T) {
	srv := newServer(t, Config{MaxInflight: 2})
	for i := 0; i < srv.gate.Capacity(); i++ {
		if !srv.gate.TryAcquire() {
			t.Fatal("gate refused below capacity")
		}
	}
	defer func() {
		for i := 0; i < srv.gate.Capacity(); i++ {
			srv.gate.Release()
		}
	}()

	rec := postJSON(t, srv.Handler(), "/v1/select", `{}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("saturated select: %d, want 429", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "saturated") {
		t.Errorf("429 body: %s", rec.Body.String())
	}

	health := httptest.NewRecorder()
	srv.Handler().ServeHTTP(health, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if health.Code != http.StatusOK {
		t.Errorf("healthz under saturation: %d", health.Code)
	}
}

// TestRequestTimeout: an expired deadline cancels the solve and maps
// ErrCanceled to 504.
func TestRequestTimeout(t *testing.T) {
	srv := newServer(t, Config{RequestTimeout: time.Nanosecond})
	rec := postJSON(t, srv.Handler(), "/v1/select", `{"algorithm":"grasp","rounds":50}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out select: %d %s, want 504", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "canceled") {
		t.Errorf("504 body should name the cancellation: %s", rec.Body.String())
	}
}

// TestBadRequests pins the 4xx surface.
func TestBadRequests(t *testing.T) {
	srv := newServer(t, Config{})
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"bad json", "/v1/select", `{"algorithm":`, http.StatusBadRequest},
		{"unknown field", "/v1/select", `{"algoritm":"maxsub"}`, http.StatusBadRequest},
		{"workers is the server's choice", "/v1/select", `{"workers":4}`, http.StatusBadRequest},
		{"unknown algorithm", "/v1/select", `{"algorithm":"simplex"}`, http.StatusBadRequest},
		{"unknown gain", "/v1/select", `{"gain":"cubic"}`, http.StatusBadRequest},
		{"unknown metric", "/v1/select", `{"metric":"novelty"}`, http.StatusBadRequest},
		{"bad divisor", "/v1/select", `{"divisors":[0]}`, http.StatusBadRequest},
		{"bad budget", "/v1/select", `{"budget":1.5}`, http.StatusBadRequest},
		{"tick in training window", "/v1/select", `{"ticks":[10]}`, http.StatusBadRequest},
		{"tick past horizon", "/v1/select", `{"ticks":[100000]}`, http.StatusBadRequest},
		{"quality candidate range", "/v1/quality", `{"set":[99]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := postJSON(t, srv.Handler(), tc.path, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: %d %s, want %d", tc.name, rec.Code, rec.Body.String(), tc.want)
		}
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/select", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET select: %d, want 405", rec.Code)
	}
}

// TestFutureBoundedByWindow: a `future` count larger than the evaluation
// window (horizon−1−T0 ticks) is a 400 on both endpoints — it would spread
// ticks down to T0 itself, and a huge count would size a huge allocation
// from a tiny body — while a count equal to the window is served with every
// tick inside it.
func TestFutureBoundedByWindow(t *testing.T) {
	d := testDataset(t)
	srv := newServer(t, Config{})
	span := int(d.Horizon() - 1 - d.T0)
	for path, body := range map[string]string{
		"/v1/select":  `{"future":%d}`,
		"/v1/quality": `{"set":[0],"future":%d}`,
	} {
		for _, future := range []int{span + 1, 100000000} {
			rec := postJSON(t, srv.Handler(), path, fmt.Sprintf(body, future))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "future") {
				t.Errorf("%s future=%d: %d %s, want 400 naming future", path, future, rec.Code, rec.Body.String())
			}
		}
	}

	rec := postJSON(t, srv.Handler(), "/v1/quality", fmt.Sprintf(`{"set":[0],"future":%d}`, span))
	if rec.Code != http.StatusOK {
		t.Fatalf("quality future=%d (the whole window): %d %s", span, rec.Code, rec.Body.String())
	}
	var q QualityResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Ticks) != span {
		t.Fatalf("quality future=%d: %d ticks", span, len(q.Ticks))
	}
	for i, tk := range q.Ticks {
		if tk <= int64(d.T0) || tk >= int64(d.Horizon()) || (i > 0 && tk <= q.Ticks[i-1]) {
			t.Fatalf("quality future=%d: tick %d = %d not strictly increasing inside (%d, %d)", span, i, tk, d.T0, d.Horizon())
		}
	}
}

// TestFutureTicksWindow: the window check freshselect shares with the
// endpoints rejects a count below one or past the window — with the message
// /v1/select answers as a 400 — and spreads a count equal to the window
// over every tick of it.
func TestFutureTicksWindow(t *testing.T) {
	d := testDataset(t)
	span := int(d.Horizon() - 1 - d.T0)
	for _, future := range []int{-1, 0, span + 1} {
		if _, err := FutureTicks(d.T0, d.Horizon(), future); err == nil || !strings.Contains(err.Error(), "future") {
			t.Errorf("future=%d: err = %v, want an error naming future", future, err)
		}
	}
	_, err := FutureTicks(d.T0, d.Horizon(), span+1)
	srv := newServer(t, Config{})
	rec := postJSON(t, srv.Handler(), "/v1/select", fmt.Sprintf(`{"future":%d}`, span+1))
	var body errorResponse
	if jerr := json.Unmarshal(rec.Body.Bytes(), &body); jerr != nil || rec.Code != http.StatusBadRequest || body.Error != err.Error() {
		t.Errorf("select future=%d: %d %s, want 400 %q", span+1, rec.Code, rec.Body.String(), err)
	}

	ts, err := FutureTicks(d.T0, d.Horizon(), span)
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range ts {
		if tk != d.T0+timeline.Tick(i+1) {
			t.Fatalf("future=%d: tick %d = %d, want every tick of (%d, %d] once", span, i, tk, d.T0, d.Horizon()-1)
		}
	}
	if len(ts) != span {
		t.Fatalf("future=%d: %d ticks", span, len(ts))
	}
}

// TestInfoEndpoints covers /v1/sources, /healthz and /metrics.
func TestInfoEndpoints(t *testing.T) {
	d := testDataset(t)
	srv := newServer(t, Config{})

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sources", nil))
	var src SourcesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &src); err != nil {
		t.Fatal(err)
	}
	if len(src.Sources) != len(d.Sources) || src.T0 != int64(d.T0) {
		t.Errorf("sources: %d entries t0=%d", len(src.Sources), src.T0)
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("healthz: %d %s", rec.Code, rec.Body.String())
	}
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health["version"] != version.Version || health["commit"] != version.Commit {
		t.Errorf("healthz build identity: %v", health)
	}
	if up, ok := health["uptime_seconds"].(float64); !ok || up < 0 {
		t.Errorf("healthz uptime: %v", health["uptime_seconds"])
	}

	// The warm-registry hit rate must be visible on /metrics?format=json.
	postJSON(t, srv.Handler(), "/v1/select", `{}`)
	postJSON(t, srv.Handler(), "/v1/select", `{}`)
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.registry.result_hits"] < 1 {
		t.Errorf("metrics should expose warm hits, got %v", snap.Counters["serve.registry.result_hits"])
	}
	if snap.Counters["serve.registry.trained_misses"] < 1 {
		t.Errorf("metrics should expose the startup fit, got %v", snap.Counters["serve.registry.trained_misses"])
	}
	if snap.Gauges["proc.heap_alloc_bytes"] <= 0 {
		t.Errorf("metrics should capture runtime gauges, got %v", snap.Gauges["proc.heap_alloc_bytes"])
	}

	// The default /metrics view is the Prometheus text exposition.
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != obs.PrometheusContentType {
		t.Errorf("metrics content type: %q", ct)
	}
	doc := rec.Body.String()
	if n, err := obs.ValidatePrometheus(doc); err != nil || n == 0 {
		t.Fatalf("metrics exposition invalid (%d samples): %v", n, err)
	}
	for _, want := range []string{
		"# TYPE serve_registry_result_hits counter",
		"# TYPE http_select_seconds histogram",
		`http_select_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestConcurrentRequests hammers the handler from many goroutines (the
// race-detector workload): identical requests must all agree byte-for-byte,
// and every response is either 200 or a clean 429.
func TestConcurrentRequests(t *testing.T) {
	srv := newServer(t, Config{MaxInflight: 64})
	want := postJSON(t, srv.Handler(), "/v1/select", `{}`).Body.Bytes()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%4 == 3 {
				rec := postJSON(t, srv.Handler(), "/v1/quality", `{"set":[1,3],"future":4}`)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("quality: %d %s", rec.Code, rec.Body.String())
				}
				return
			}
			rec := postJSON(t, srv.Handler(), "/v1/select", `{}`)
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("select: %d %s", rec.Code, rec.Body.String())
				return
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				errs <- fmt.Errorf("concurrent response diverged")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGracefulDrain runs the real listener lifecycle: cancel the serve
// context while a slow request is in flight; the listener must close (new
// connections refused) while the in-flight request completes 200.
func TestGracefulDrain(t *testing.T) {
	// Generous request/drain bounds: under -race the solver is an order of
	// magnitude slower, and this test must never hit them.
	srv := newServer(t, Config{
		RequestTimeout: 10 * time.Minute,
		ShutdownGrace:  10 * time.Minute,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, ln) }()

	base := "http://" + ln.Addr().String()
	admitted0 := counter("serve.admission.admitted")

	slow := make(chan *http.Response, 1)
	slowErr := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/select", "application/json",
			strings.NewReader(`{"algorithm":"grasp","rounds":60,"seed":7}`))
		if err != nil {
			slowErr <- err
			return
		}
		slow <- resp
	}()

	// Wait until the slow request holds a gate slot, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for counter("serve.admission.admitted") == admitted0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	// The in-flight request must finish cleanly despite the shutdown.
	select {
	case err := <-slowErr:
		t.Fatalf("in-flight request dropped during drain: %v", err)
	case resp := <-slow:
		if resp.StatusCode != http.StatusOK {
			t.Errorf("drained request: %d", resp.StatusCode)
		}
		resp.Body.Close()
	case <-time.After(60 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	// Listener is gone: new connections must be refused.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after drain")
	}
}
