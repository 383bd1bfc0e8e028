package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"freshsource/internal/gate"
	"freshsource/internal/serve"
	"freshsource/perfbench/load"
)

// warmOpsPerSecond sizes warm-mix: -seconds × this many ops per run, split
// evenly across the set-ups. At 20 s that is 48 blocks of 4002, twelve per
// set-up, and the load runs for about as long as the nominal seconds on a
// 2-vCPU host. Host speed drifts over tens of seconds, and a longer load
// averages more of that drift into each run's median.
const warmOpsPerSecond = 9600

// warmClients is warm-mix's closed-loop client count.
const warmClients = 2

// worldOf maps a warm-mix tenant to its world seed.
var worldOf = map[string]int64{"bl1": 1, "bl2": 2}

// warmTopology is one warm-mix set-up: two freshd backends replicating
// both tenants behind a freshgate pool, all on loopback.
type warmTopology struct {
	backends []*liveServer
	gate     *liveServer
	stopGate context.CancelFunc
	probing  chan struct{}
	// bodies holds the warmed answer per request, the bytes every measured
	// repeat must return.
	bodies map[string][]byte
}

func (w *warmTopology) close() error {
	var first error
	if w.stopGate != nil {
		w.stopGate()
		<-w.probing
	}
	if w.gate != nil {
		if err := w.gate.close(); err != nil && first == nil {
			first = err
		}
	}
	for _, b := range w.backends {
		if err := b.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// warmRequest renders one op as (method, path, body).
func warmRequest(op load.Op) (string, string, []byte) {
	switch op.Class {
	case load.ClassSelect:
		return http.MethodPost, "/v1/select", mustJSON(load.HotSelectKeys()[op.Key])
	case load.ClassQuality:
		return http.MethodPost, "/v1/quality", mustJSON(load.HotQualityKeys()[op.Key])
	case load.ClassFreshness:
		return http.MethodGet, "/v1/freshness", nil
	default:
		return http.MethodGet, "/v1/sources", nil
	}
}

func opID(op load.Op) string { return fmt.Sprintf("%s|%s|%d", op.Tenant, op.Class, op.Key) }

// setUpWarm builds the topology and warms every hot request on both
// replicas, checking the select and quality bodies against the reference
// and the replicas against each other.
func setUpWarm(r *runResult, client *http.Client, opt options) (*warmTopology, error) {
	w := &warmTopology{bodies: map[string][]byte{}}
	// The replicas share the two generated worlds: datasets are immutable,
	// and each backend still fits and caches its own models.
	d1, err := genWorld(worldOf["bl1"])
	if err != nil {
		return w, err
	}
	d2, err := genWorld(worldOf["bl2"])
	if err != nil {
		return w, err
	}
	// Freshgate names each backend by its URL, so the listeners are chosen
	// until backend i is tenant i's home: the layout by role is the same in
	// every run, whatever the ports.
	lns, err := load.SplitListeners(listenLoopback, load.WarmTenants)
	if err != nil {
		return w, err
	}
	bases := make([]string, len(lns))
	for i, ln := range lns {
		ls, err := startServerOn(ln, d1, serve.Config{
			DefaultTenant: "bl1",
			Tenants:       []serve.TenantSpec{{Name: "bl2", Dataset: d2}},
		})
		if err != nil {
			for _, rest := range lns[i+1:] {
				rest.Close()
			}
			return w, err
		}
		w.backends = append(w.backends, ls)
		bases[i] = ls.base
	}
	pool, err := load.NewGatePool(bases, gate.Config{DefaultTenant: "bl1"})
	if err != nil {
		return w, err
	}
	homes := load.Homes(pool, load.WarmTenants)
	layout := map[string]string{}
	for i, t := range load.WarmTenants {
		if homes[t] != bases[i] {
			return w, fmt.Errorf("warm-mix layout %v over %v, want tenant %s on backend %d", homes, bases, t, i)
		}
		layout[t] = fmt.Sprintf("backend-%d", i)
	}
	r.diag["layout"] = layout
	if w.gate, err = serveOn(nil, pool.Handler(), false); err != nil {
		return w, err
	}
	pctx, cancel := context.WithCancel(context.Background())
	w.stopGate, w.probing = cancel, make(chan struct{})
	go func() { defer close(w.probing); pool.Start(pctx) }()
	if err := waitGateProbed(client, w.gate.base, len(bases)); err != nil {
		return w, err
	}

	// Warm both replicas concurrently, one goroutine per backend.
	var ops []load.Op
	for _, t := range load.WarmTenants {
		for k := range load.HotSelectKeys() {
			ops = append(ops, load.Op{Class: load.ClassSelect, Tenant: t, Key: k})
		}
		for k := range load.HotQualityKeys() {
			ops = append(ops, load.Op{Class: load.ClassQuality, Tenant: t, Key: k})
		}
		ops = append(ops, load.Op{Class: load.ClassFreshness, Tenant: t}, load.Op{Class: load.ClassSources, Tenant: t})
	}
	answers := make([]map[string][]byte, len(w.backends))
	errs := make([]error, len(w.backends))
	var wg sync.WaitGroup
	for i, b := range w.backends {
		i, b := i, b
		answers[i] = map[string][]byte{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range ops {
				method, path, body := warmRequest(op)
				code, resp, err := call(client, method, tenantURL(b.base, path, op.Tenant), body)
				if err != nil || code != http.StatusOK {
					errs[i] = fmt.Errorf("warm-up %s on backend-%d: status %d err %v", opID(op), i, code, err)
					return
				}
				answers[i][opID(op)] = resp
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return w, err
		}
	}
	for _, op := range ops {
		id := opID(op)
		a := answers[0][id]
		if !bytes.Equal(a, answers[1][id]) {
			r.mismatch("warm-mix %s: replicas answer differently", id)
		}
		w.bodies[id] = a
		switch op.Class {
		case load.ClassSelect:
			k := load.HotSelectKeys()[op.Key]
			if want, ok := opt.ref.selectDigest(worldOf[op.Tenant], k); !ok || digest(a) != want.Digest {
				r.mismatch("warm-mix %s: select body does not match the reference", id)
			}
		case load.ClassQuality:
			k := load.HotQualityKeys()[op.Key]
			if want, ok := opt.ref.qualityDigest(worldOf[op.Tenant], k); !ok || digest(a) != want {
				r.mismatch("warm-mix %s: quality body does not match the reference", id)
			}
		}
	}
	return w, nil
}

// waitGateProbed waits until the gate's first probe sweep has marked every
// backend healthy with a probed /healthz body.
func waitGateProbed(c *http.Client, base string, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body, err := call(c, http.MethodGet, base+"/healthz", nil)
		if err == nil && code == http.StatusOK {
			var h struct {
				Status   string                    `json:"status"`
				Backends map[string]map[string]any `json:"backends"`
			}
			if json.Unmarshal(body, &h) == nil && h.Status == "ok" && len(h.Backends) == n {
				probed := 0
				for _, b := range h.Backends {
					if _, ok := b["generation"]; ok {
						probed++
					}
				}
				if probed == n {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("gate: backends not probed healthy within 10s")
}

// goodputWindow is the window warm-mix's goodput is counted over.
const goodputWindow = 500 * time.Millisecond

// windowRates counts successful completions per whole goodputWindow since
// start, as ops per second; the trailing partial window is dropped.
func windowRates(start time.Time, dones []time.Time, ok []bool) []float64 {
	var last time.Time
	for i, d := range dones {
		if ok[i] && d.After(last) {
			last = d
		}
	}
	n := int(last.Sub(start) / goodputWindow)
	counts := make([]float64, n)
	for i, d := range dones {
		if w := int(d.Sub(start) / goodputWindow); ok[i] && w < n {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= goodputWindow.Seconds()
	}
	return counts
}

// runWarmMix: two closed-loop clients through freshgate; every measured
// request is a cache hit warmed during set-up.
func runWarmMix(opt options) (*runResult, error) {
	r := &runResult{diag: map[string]any{}, counters: map[string]int64{}}
	client := newClient()
	total := opt.seconds * warmOpsPerSecond
	plan := load.WarmMixPlan(opt.seed, load.WarmTenants, total)
	per := (len(plan) + setups - 1) / setups
	byClass := map[load.Class][]float64{}
	var mu sync.Mutex
	for round := 0; round < setups; round++ {
		lo, hi := round*per, (round+1)*per
		if hi > len(plan) {
			hi = len(plan)
		}
		st := startSetup()
		w, err := setUpWarm(r, client, opt)
		if err != nil {
			w.close()
			return nil, err
		}
		r.endSetup(st)

		before, err := metricsSnapshot(client, w.backends[0].base)
		if err != nil {
			w.close()
			return nil, err
		}
		ops := plan[lo:hi]
		var next atomic.Int64
		lats := make([]float64, len(ops))
		dones := make([]time.Time, len(ops))
		okv := make([]bool, len(ops))
		var failed atomic.Int64
		lt := r.startLoad()
		var wg sync.WaitGroup
		for c := 0; c < warmClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if opt.trace {
					// Traced runs pin each client to a thread to measure
					// the client's own CPU.
					runtime.LockOSThread()
					defer runtime.UnlockOSThread()
					c0 := threadCPU()
					defer func() {
						mu.Lock()
						r.clientCPU += threadCPU() - c0
						mu.Unlock()
					}()
				}
				for {
					i := int(next.Add(1) - 1)
					if i >= len(ops) {
						return
					}
					op := ops[i]
					method, path, body := warmRequest(op)
					t := time.Now()
					code, resp, err := call(client, method, tenantURL(w.gate.base, path, op.Tenant), body)
					lats[i] = float64(time.Since(t)) / float64(time.Millisecond)
					if err != nil || code != http.StatusOK {
						failed.Add(1)
						continue
					}
					if !bytes.Equal(resp, w.bodies[opID(op)]) {
						mu.Lock()
						r.mismatch("warm-mix %s: repeat differs from the first answer", opID(op))
						mu.Unlock()
					}
					okv[i], dones[i] = true, time.Now()
				}
			}()
		}
		wg.Wait()
		r.endLoad(lt)
		r.windowRates = append(r.windowRates, windowRates(lt.wall, dones, okv)...)
		after, err := metricsSnapshot(client, w.backends[0].base)
		if err != nil {
			w.close()
			return nil, err
		}
		addCounters(r.counters, counterDelta(before, after))
		r.attempted += len(ops)
		r.failed += int(failed.Load())
		for i, ok := range okv {
			if ok {
				r.latencies = append(r.latencies, lats[i])
				byClass[ops[i].Class] = append(byClass[ops[i].Class], lats[i])
			}
		}
		if err := w.close(); err != nil {
			return nil, fmt.Errorf("warm-mix: shutdown: %w", err)
		}
	}
	classP50 := map[string]any{}
	for c, xs := range byClass {
		classP50[string(c)] = map[string]any{"p50_ms": load.Median(xs), "n": len(xs)}
	}
	r.diag["class_p50"] = classP50
	for _, kind := range []string{"result", "state", "problem", "trained"} {
		h, m := r.counters["serve.registry."+kind+"_hits"], r.counters["serve.registry."+kind+"_misses"]
		r.diag[kind+"_hits"], r.diag[kind+"_misses"] = h, m
	}
	return r, nil
}
