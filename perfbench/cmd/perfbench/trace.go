package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"freshsource/internal/bitset"
	"freshsource/internal/core"
	"freshsource/internal/estimate"
	"freshsource/internal/gain"
	"freshsource/internal/gate"
	"freshsource/internal/ingest"
	"freshsource/internal/modelcache"
	"freshsource/internal/obs"
	"freshsource/internal/selection"
	"freshsource/internal/serve"
	"freshsource/internal/timeline"
	"freshsource/perfbench/load"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// activeTracer is set for traced runs only; nil costs one load per request.
var activeTracer atomic.Pointer[tracer]

type spanHandle struct {
	t *tracer
	s span
}

func (t *tracer) start(name string, parent, req int64) *spanHandle {
	if t == nil {
		return nil
	}
	return &spanHandle{t: t, s: span{ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}}
}

func (h *spanHandle) id() int64 {
	if h == nil {
		return 0
	}
	return h.s.ID
}

func (h *spanHandle) end() time.Duration {
	if h == nil {
		return 0
	}
	h.s.End = int64(time.Since(h.t.t0))
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, h.s)
	h.t.mu.Unlock()
	return time.Duration(h.s.End - h.s.Start)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

func (t *tracer) dump(path string, extra map[string]any) error {
	self := t.selfTimes()
	selfMS := map[string]float64{}
	for k, v := range self {
		selfMS[k] = ms(v)
	}
	t.mu.Lock()
	doc := map[string]any{"spans": t.spans, "self_ms": selfMS}
	for k, v := range extra {
		doc[k] = v
	}
	raw, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianOf times f reps times and returns the median duration.
func medianOf(reps int, f func()) time.Duration {
	xs := make([]float64, reps)
	for i := range xs {
		t := time.Now()
		f()
		xs[i] = float64(time.Since(t))
	}
	return time.Duration(load.Median(xs))
}

// timedOracle forwards the incremental oracle interface of gain.Profit, so
// selection keeps its incremental path, and records a span around every
// oracle evaluation.
type timedOracle struct {
	p      *gain.Profit
	tr     *tracer
	parent int64
	profit time.Duration // inside Value and ValueAdd
	begin  time.Duration // inside BeginAdd
}

func (o *timedOracle) Value(set []int) float64 {
	h := o.tr.start("gain.profit", o.parent, 1)
	v := o.p.Value(set)
	o.profit += h.end()
	return v
}

func (o *timedOracle) Feasible(set []int) bool { return o.p.Feasible(set) }

func (o *timedOracle) BeginAdd(set []int) any {
	h := o.tr.start("gain.begin_add", o.parent, 1)
	st := o.p.BeginAdd(set)
	o.begin += h.end()
	return st
}

func (o *timedOracle) ValueAdd(state any, x int) float64 {
	h := o.tr.start("gain.profit", o.parent, 1)
	v := o.p.ValueAdd(state, x)
	o.profit += h.end()
	return v
}

// spannedSolve runs greedy on p's profit oracle with every oracle call
// spanned, and returns the solve's wall time and its oracle.
func spannedSolve(t *tracer, p *core.Problem, n int) (time.Duration, *timedOracle, selection.Result) {
	h := t.start("selection.solve", 0, 1)
	or := &timedOracle{p: p.Profit(), tr: t, parent: h.id()}
	res := selection.Greedy(or, n)
	return h.end(), or, res
}

var _ selection.IncrementalOracle = (*timedOracle)(nil)

// handlerCall runs one request through an in-process handler.
func handlerCall(h http.Handler, method, target string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// ladder keys: one cold greedy and one cold maxsub key of cold-select. The
// greedy key selects a non-empty set in several rounds, and its 127 oracle
// calls sit near the cold-select median.
var (
	ladderGreedy = load.SelectKey{Algorithm: "greedy", Gain: "linear", Metric: "global-freshness", Future: 1}
	ladderMaxSub = load.SelectKey{Algorithm: "maxsub", Gain: "step", Metric: "local-freshness", Future: 1}
)

// runLadder measures the per-layer ladder on world seed 1 and adds the
// counter-derived metrics of the workload run r. Every per-layer metric is
// printed on every workload's traced run; counter ratios describe the
// workload that ran.
func runLadder(opt options, r *runResult) error {
	t := activeTracer.Load()
	L := map[string]float64{}
	r.perLayer = L
	ctx := context.Background()
	client := newClient()

	// Workload counters.
	c := r.counters
	for _, kind := range []string{"result", "state", "problem", "trained"} {
		h, m := c["serve.registry."+kind+"_hits"], c["serve.registry."+kind+"_misses"]
		L["serve."+kind+"_hit_ratio"] = ratio(h, h+m)
		r.diag["base."+kind+"_lookups"] = h + m
	}
	L["serve.evictions"] = float64(c["serve.registry.evictions"])
	var leaders, followers int64
	for k, v := range c {
		if strings.HasSuffix(k, ".followers") && strings.Contains(k, "coalesce") {
			followers += v
		}
		if strings.HasSuffix(k, ".leaders") && strings.Contains(k, "coalesce") {
			leaders += v
		}
	}
	L["serve.coalesce_follower_share"] = ratio(followers, leaders+followers)
	r.diag["base.coalesced_requests"] = leaders + followers
	adm, rej := c["serve.admission.admitted"], c["serve.admission.rejected"]
	L["serve.admission_reject_share"] = ratio(rej, adm+rej)
	r.diag["base.admission_decisions"] = adm + rej
	L["gate.failovers"] = float64(c["gate.failovers"])
	L["ingest.stale_share"], _ = r.diag["stale_share"].(float64) // ingest-read only
	spec, wasted := c["selection.lazygreedy.speculative_recomputes"], c["selection.lazygreedy.speculative_wasted"]
	L["selection.celf_wasted_share"] = ratio(wasted, spec)
	r.diag["base.speculative_recomputes"] = spec
	L["runtime.alloc_bytes_per_op"] = r.rt.allocBytes / float64(len(r.latencies))
	L["runtime.gc_cpu_share"] = ratio64(r.rt.gcCPU, r.rt.totalCPU)
	L["runtime.heap_live_mb"] = r.rt.heapLiveMB
	L["bench.client_cpu_share"] = ratio64(r.clientCPU.Seconds(), r.loadCPU.Seconds())

	// Set-up layers.
	h := t.start("dataset.generate", 0, 2)
	d, err := genWorld(1)
	if err != nil {
		return err
	}
	L["dataset.generate_ms"] = ms(h.end())
	reg := serve.NewRegistry(ctx, d, 4096, 0, nil)
	defer reg.Close()
	cpu0 := processCPU()
	h = t.start("estimate.fit", 0, 3)
	tr, err := reg.Trained(ctx, nil)
	if err != nil {
		return err
	}
	L["estimate.fit_ms"] = ms(h.end())
	L["estimate.fit_cpu_ms"] = ms(processCPU() - cpu0)

	mcDir := filepath.Join(opt.outDir, "modelcache")
	os.RemoveAll(mcDir)
	mc, err := modelcache.New(mcDir)
	if err != nil {
		return err
	}
	if _, _, err := mc.LoadOrFit(ctx, d, core.TrainOptions{}); err != nil {
		return err
	}
	h = t.start("modelcache.load", 0, 4)
	if _, st, err := mc.LoadOrFit(ctx, d, core.TrainOptions{}); err != nil || st.String() != "hit" {
		return fmt.Errorf("modelcache: second load was %v (%v), want a hit", st, err)
	}
	L["modelcache.load_ms"] = ms(h.end())
	os.RemoveAll(mcDir)

	// Probe and solve path, direct.
	ticks1 := serve.SpreadTicks(d.T0, d.Horizon(), 1)
	for _, k := range []load.SelectKey{ladderGreedy, ladderMaxSub} {
		g, err := serve.MakeGain(k.Gain, k.Metric, d.World.NumEntities())
		if err != nil {
			return err
		}
		h = t.start("core.new_problem", 0, 5)
		p, err := core.NewProblem(tr, ticks1, g, core.ProblemOptions{Budget: k.Budget})
		if err != nil {
			return err
		}
		build := h.end()
		if k == ladderGreedy {
			L["core.new_problem_ms"] = ms(build)
		}
		h = t.start("core.solve", 0, 5)
		sel, err := p.SolveContext(ctx, core.Algorithm(k.Algorithm), core.SolveOptions{Kappa: 5, Rounds: 20, Seed: 1})
		if err != nil {
			return err
		}
		// The greedy key's solve time is re-measured below as a median
		// interleaved with its served selects.
		L["core.solve_ms."+k.Algorithm] = ms(h.end())
		L["selection.oracle_calls."+k.Algorithm] = float64(sel.OracleCalls)
	}

	// The cold-select ladder for the greedy key: solve with every oracle
	// call spanned, then the probe and kernel split of the profit calls.
	g, _ := serve.MakeGain(ladderGreedy.Gain, ladderGreedy.Metric, d.World.NumEntities())
	p, err := core.NewProblem(tr, ticks1, g, core.ProblemOptions{Budget: ladderGreedy.Budget})
	if err != nil {
		return err
	}
	before := obsCounters()
	_, _, res := spannedSolve(t, p, tr.NumCandidates())
	calls := res.OracleCalls
	delta := counterDelta(before, obsCounters())
	adds := delta["estimate.quality.add_calls"]
	L["estimate.recurrence_steps_per_probe"] = float64(delta["estimate.recurrence.steps"]) / float64(adds)
	kernelsPerProbe := float64(delta["estimate.signature.kernel_counts"]) / float64(adds)
	L["estimate.kernel_counts_per_probe"] = kernelsPerProbe
	r.diag["base.probe_calls"] = adds

	est := tr.Est
	n := tr.NumCandidates()
	st0 := est.NewSetState(nil)
	buf := make([]estimate.QualityEstimate, 0, 8)
	probeAt := func(ts []timeline.Tick) time.Duration {
		i := 0
		return medianOf(n, func() {
			buf = est.QualityMultiAddInto(st0, i%n, ts, buf[:0])
			i++
		})
	}
	// The ladder splits the profit spans' total, so it needs the mean probe
	// over one pass of the candidates, not the median.
	pass := time.Now()
	for x := 0; x < n; x++ {
		buf = est.QualityMultiAddInto(st0, x, ticks1, buf[:0])
	}
	probe1 := time.Since(pass) / time.Duration(n)
	L["estimate.probe_us.t2"] = us(probeAt(serve.SpreadTicks(d.T0, d.Horizon(), 2)))
	L["estimate.probe_us.t6"] = us(probeAt(serve.SpreadTicks(d.T0, d.Horizon(), 6)))

	prof := p.Profit()
	pst := prof.BeginAdd(nil)
	i := 0
	valueAdd := medianOf(n, func() {
		prof.ValueAdd(pst, i%n)
		i++
	})
	L["gain.value_add_us"] = us(valueAdd)

	words := (d.World.NumEntities() + 63) / 64
	a, b, cc := randomSet(d.World.NumEntities(), 1), randomSet(d.World.NumEntities(), 2), randomSet(d.World.NumEntities(), 3)
	const batch = 1000
	kernel := medianOf(31, func() {
		for j := 0; j < batch; j++ {
			bitset.IntersectAndNotCount(a, b, cc)
		}
	}) / batch
	L["bitset.kernel_ns"] = float64(kernel)
	L["bitset.words_per_probe"] = kernelsPerProbe * float64(words)
	r.diag["bitset.signature_words"] = words

	// Serving layers on a fresh server over the same world. Repeated cold
	// selects of the ladder key vary only the GRASP seed, which greedy
	// ignores: each is a result-cache miss doing the same solve, and the
	// answer bytes are identical. The seed is not part of the registry's
	// problem key, so only the first of them builds the problem; each
	// select's problem misses are counted, and the build is charged to the
	// selects that missed.
	srv, err := serve.New(d, serve.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	var spanHandler atomic.Bool
	var handlerSpans []time.Duration
	var hsMu sync.Mutex
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, rq *http.Request) {
		if !spanHandler.Load() {
			srv.Handler().ServeHTTP(w, rq)
			return
		}
		hh := t.start("serve.handler", 0, 1)
		srv.Handler().ServeHTTP(w, rq)
		dur := hh.end()
		hsMu.Lock()
		handlerSpans = append(handlerSpans, dur)
		hsMu.Unlock()
	})
	ls, err := serveOn(srv, wrapped, false)
	if err != nil {
		return err
	}
	defer ls.close()
	coldBody := func(seed int) []byte {
		k := ladderGreedy
		return mustJSON(struct {
			load.SelectKey
			Seed int `json:"seed"`
		}{k, seed})
	}
	// problemMisses runs f and returns the registry problem misses it caused.
	problemMisses := func(f func() error) (float64, error) {
		before := obsCounters()["serve.registry.problem_misses"]
		err := f()
		return float64(obsCounters()["serve.registry.problem_misses"] - before), err
	}
	// Each rep runs the traced select, the untraced select and the direct
	// solve of the same key, rotating their order so host noise falls on
	// all three alike.
	const coldReps = 4
	var tracedHTTP, untracedHTTP, direct, httpSelf, tracedMisses, untracedMisses []float64
	type spannedRun struct {
		wall time.Duration
		or   *timedOracle
	}
	var solves []spannedRun
	for i := 0; i < coldReps; i++ {
		for j := 0; j < 4; j++ {
			switch (i + j) % 4 {
			case 3:
				wall, or, _ := spannedSolve(t, p, tr.NumCandidates())
				solves = append(solves, spannedRun{wall, or})
			case 0:
				var d time.Duration
				miss, err := problemMisses(func() error {
					spanHandler.Store(true)
					hc := t.start("http.client", 0, int64(100+i))
					code, _, err := call(client, http.MethodPost, ls.base+"/v1/select", coldBody(100+i))
					d = hc.end()
					spanHandler.Store(false)
					if err == nil && code != http.StatusOK {
						err = fmt.Errorf("status %d", code)
					}
					return err
				})
				if err != nil {
					return fmt.Errorf("ladder select: %v", err)
				}
				tracedHTTP = append(tracedHTTP, ms(d))
				tracedMisses = append(tracedMisses, miss)
				hsMu.Lock()
				httpSelf = append(httpSelf, ms(d-handlerSpans[len(handlerSpans)-1]))
				hsMu.Unlock()
			case 1:
				var d time.Duration
				miss, err := problemMisses(func() error {
					activeTracer.Store(nil)
					defer activeTracer.Store(t)
					t0 := time.Now()
					code, _, err := call(client, http.MethodPost, ls.base+"/v1/select", coldBody(200+i))
					d = time.Since(t0)
					if err == nil && code != http.StatusOK {
						err = fmt.Errorf("status %d", code)
					}
					return err
				})
				if err != nil {
					return fmt.Errorf("ladder untraced select: %v", err)
				}
				untracedHTTP = append(untracedHTTP, ms(d))
				untracedMisses = append(untracedMisses, miss)
			case 2:
				t0 := time.Now()
				if _, err := p.SolveContext(ctx, core.Greedy, core.SolveOptions{Kappa: 5, Rounds: 20, Seed: 1}); err != nil {
					return err
				}
				direct = append(direct, ms(time.Since(t0)))
			}
		}
	}
	L["core.solve_ms.greedy"] = load.Median(direct)
	handlerMS := make([]float64, len(handlerSpans))
	for i, h := range handlerSpans {
		handlerMS[i] = ms(h)
	}
	// Per rep, the ladder's rungs are the spanned solve broken down, the
	// problem build when the select missed it, the handler around them and
	// the HTTP hop; each rep's four measurements ran back to back, so the
	// rep's ladder sum is compared with its own untraced select.
	newProblem := L["core.new_problem_ms"]
	var selSelf, profitSelf, handlerSelf, slacks []float64
	for i, sv := range solves {
		selSelf = append(selSelf, ms(sv.wall-sv.or.profit-sv.or.begin))
		profitSelf = append(profitSelf, ms(sv.or.profit+sv.or.begin))
		handlerSelf = append(handlerSelf, handlerMS[i]-direct[i]-tracedMisses[i]*newProblem)
		sum := ms(sv.wall) + untracedMisses[i]*newProblem + handlerSelf[i] + httpSelf[i]
		slacks = append(slacks, (sum-untracedHTTP[i])/untracedHTTP[i])
	}
	L["selection.self_ms"] = load.Median(selSelf)
	L["serve.handler_miss_overhead_ms"] = load.Median(handlerSelf)

	// Warm-mix's warm-up for one tenant on one backend: the hot select and
	// quality keys, cold, over loopback.
	activeTracer.Store(nil)
	h = t.start("serve.warmup", 0, 7)
	for _, k := range load.HotSelectKeys() {
		if code, _, err := call(client, http.MethodPost, ls.base+"/v1/select", mustJSON(k)); err != nil || code != http.StatusOK {
			return fmt.Errorf("ladder warm-up select: status %d err %v", code, err)
		}
	}
	for _, k := range load.HotQualityKeys() {
		if code, _, err := call(client, http.MethodPost, ls.base+"/v1/quality", mustJSON(k)); err != nil || code != http.StatusOK {
			return fmt.Errorf("ladder warm-up quality: status %d err %v", code, err)
		}
	}
	L["serve.warmup_ms"] = ms(h.end())
	activeTracer.Store(t)

	// Warm paths: cached select and quality on the in-process handler, over
	// loopback, and through freshgate.
	greedyBody := coldBody(100)
	qBody := mustJSON(load.HotQualityKeys()[0])
	handlerCall(srv.Handler(), http.MethodPost, "/v1/quality", qBody)
	const reps = 400
	hitSel := medianOf(reps, func() { handlerCall(srv.Handler(), http.MethodPost, "/v1/select", greedyBody) })
	hitQ := medianOf(reps, func() { handlerCall(srv.Handler(), http.MethodPost, "/v1/quality", qBody) })
	L["serve.handler_hit_us"] = us((hitSel + hitQ) / 2)
	activeTracer.Store(nil)
	loop := medianOf(reps, func() { call(client, http.MethodPost, ls.base+"/v1/select", greedyBody) })
	activeTracer.Store(t)
	L["serve.http_loopback_us"] = us(loop - hitSel)
	spanned := medianOf(reps, func() { call(client, http.MethodPost, ls.base+"/v1/select", greedyBody) })
	L["trace.overhead_us_per_request"] = us(spanned - loop)
	L["serve.freshness_us"] = us(medianOf(reps/4, func() { handlerCall(srv.Handler(), http.MethodGet, "/v1/freshness", nil) }))
	L["serve.sources_ms"] = ms(medianOf(15, func() { handlerCall(srv.Handler(), http.MethodGet, "/v1/sources", nil) }))

	pool, err := load.NewGatePool([]string{ls.base}, gate.Config{})
	if err != nil {
		return err
	}
	gl, err := serveOn(nil, pool.Handler(), false)
	if err != nil {
		return err
	}
	defer gl.close()
	activeTracer.Store(nil)
	call(client, http.MethodPost, gl.base+"/v1/select", greedyBody)
	viaGate := medianOf(reps, func() { call(client, http.MethodPost, gl.base+"/v1/select", greedyBody) })
	activeTracer.Store(t)
	L["gate.hop_us"] = us(viaGate - loop)

	// Ingest path: ingest-read's batches, 14 per epoch, replayed.
	if err := ingestLadder(ctx, L, opt.seed); err != nil {
		return err
	}

	// The cold-select ladder sums the layers' self times; it must add up
	// to the untraced select latency of the same key.
	kernelMS := float64(calls) * kernelsPerProbe * float64(kernel) / 1e6
	probeMS := float64(calls)*ms(probe1) - kernelMS
	layers := map[string]float64{
		"bitset.kernel (computed)":  kernelMS,
		"estimate.probe (computed)": probeMS,
		"gain.profit (self)":        load.Median(profitSelf) - kernelMS - probeMS,
		"selection.solve (self)":    L["selection.self_ms"],
		"core.new_problem (misses)": load.Median(untracedMisses) * newProblem,
		"serve.handler (self)":      load.Median(handlerSelf),
		"http (self)":               load.Median(httpSelf),
	}
	sum := 0.0
	for _, v := range layers {
		sum += v
	}
	untraced := load.Median(untracedHTTP)
	slack := load.Median(slacks)
	fmt.Printf("# cold-select ladder, key %s (%d oracle calls), medians of %d reps:\n", ladderGreedy.Name(), calls, coldReps)
	fmt.Printf("#   core.new_problem takes %.3f ms; it is a rung only of selects that miss the problem cache (untraced selects: %v misses)\n", newProblem, untracedMisses)
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("#   %-28s %12.3f ms\n", k, layers[k])
	}
	q1, _, q3 := load.Quartiles(untracedHTTP)
	fmt.Printf("#   sum of layers %.3f ms, untraced select %.3f ms; per-rep ladder sum vs that rep's untraced select: median %+.2f%% (stated slack ±10%%: %s; untraced samples' quartile spread %.1f%%)\n",
		sum, untraced, 100*slack, map[bool]string{true: "within", false: "OUTSIDE"}[slack < 0.1 && slack > -0.1], 100*(q3-q1)/untraced)
	r.diag["ladder_layers_ms"] = layers
	r.diag["ladder_sum_ms"] = sum
	r.diag["ladder_untraced_ms"] = untraced
	r.diag["ladder_slacks"] = slacks
	r.diag["ladder_traced_ms"] = load.Median(tracedHTTP)
	r.diag["ladder_samples_ms"] = map[string][]float64{
		"traced_http": tracedHTTP, "untraced_http": untracedHTTP, "handler": handlerMS, "direct_solve": direct,
	}
	r.diag["ladder_problem_misses"] = map[string][]float64{"traced": tracedMisses, "untraced": untracedMisses}
	r.diag["ladder_slack"] = slack

	path := filepath.Join(opt.outDir, fmt.Sprintf("trace-%s-%d.json", opt.workload, opt.seed))
	if err := t.dump(path, map[string]any{"ladder_ms": layers, "untraced_select_ms": untraced}); err != nil {
		return err
	}
	fmt.Printf("# span dump: %s\n", path)
	return nil
}

func ratio64(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// obsCounters reads the process's obs counters, the registry every
// serve.Server exposes on /metrics.
func obsCounters() map[string]int64 { return obs.Active().Snapshot().Counters }

func randomSet(n int, seed int64) *bitset.Set {
	rng := rand.New(rand.NewSource(seed))
	s := bitset.New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			s.Add(i)
		}
	}
	return s
}

// ingestLadder replays ingest-read's observe batches through the serving
// commit (scheduler off), the ingester, and the accumulator directly.
func ingestLadder(ctx context.Context, L map[string]float64, seed int64) error {
	const perEpoch, epochs = 14, 4
	d, err := genWorld(1)
	if err != nil {
		return err
	}
	batches := load.IngestPlan(seed*1000, perEpoch*epochs, len(d.Sources), d.World.NumEntities(), int64(d.T0))

	// serve.Server.CommitEpoch, driven by hand.
	srv, err := serve.New(d, serve.Config{Addr: "127.0.0.1:0", IngestEpoch: time.Hour})
	if err != nil {
		return err
	}
	defer srv.Close()
	var commits []float64
	for e := 0; e < epochs; e++ {
		for _, b := range batches[e*perEpoch : (e+1)*perEpoch] {
			code, body := handlerCall(srv.Handler(), http.MethodPost, "/v1/observe", mustJSON(map[string]any{"observations": b}))
			if code != http.StatusAccepted {
				return fmt.Errorf("ladder observe: status %d: %s", code, body)
			}
		}
		t := time.Now()
		if _, err := srv.CommitEpoch(ctx); err != nil {
			return err
		}
		commits = append(commits, ms(time.Since(t)))
	}
	L["serve.commit_ms"] = load.Median(commits)

	// The ingester on a copy of the world.
	d2, err := genWorld(1)
	if err != nil {
		return err
	}
	in, err := ingest.New(ctx, d2, ingest.Config{})
	if err != nil {
		return err
	}
	defer in.Close()
	var submits, icommits []float64
	var lastEst *estimate.Estimator
	var lastWM timeline.Tick
	for e := 0; e < epochs; e++ {
		for _, b := range batches[e*perEpoch : (e+1)*perEpoch] {
			obs := toObservations(b)
			t := time.Now()
			if err := in.Submit(obs); err != nil {
				return err
			}
			submits = append(submits, us(time.Since(t)))
		}
		t := time.Now()
		ep, err := in.Commit(ctx)
		if err != nil {
			return err
		}
		icommits = append(icommits, ms(time.Since(t)))
		in.Ack(ep.Seq)
		lastEst, lastWM = ep.Est, ep.Watermark
	}
	L["ingest.submit_us"] = load.Median(submits)
	L["ingest.commit_ms"] = load.Median(icommits)

	// Cold quality state per hot key on the fresh generation.
	var qs []float64
	for _, k := range load.HotQualityKeys() {
		ts := serve.SpreadTicks(lastWM, d2.Horizon(), k.Future)
		t := time.Now()
		lastEst.QualityMultiState(lastEst.NewSetState(k.Set), ts)
		qs = append(qs, ms(time.Since(t)))
	}
	L["estimate.quality_state_ms"] = load.Median(qs)

	// The accumulator alone.
	acc, err := estimate.NewAccumulator(ctx, d2.World, d2.Sources, d2.T0, d2.Horizon()-1, nil, estimate.FitOptions{})
	if err != nil {
		return err
	}
	var adv, bld []float64
	for e := 0; e < epochs; e++ {
		per := make([][]timeline.Event, len(d2.Sources))
		var cut timeline.Tick
		for _, b := range batches[e*perEpoch : (e+1)*perEpoch] {
			for _, o := range toObservations(b) {
				per[o.Source] = append(per[o.Source], o.Event)
				if o.Event.At > cut {
					cut = o.Event.At
				}
			}
		}
		for s := range per {
			sort.SliceStable(per[s], func(i, j int) bool { return timeline.Less(per[s][i], per[s][j]) })
		}
		t := time.Now()
		if err := acc.Advance(ctx, cut, per); err != nil {
			return err
		}
		adv = append(adv, ms(time.Since(t)))
		t = time.Now()
		if _, err := acc.Build(ctx); err != nil {
			return err
		}
		bld = append(bld, ms(time.Since(t)))
	}
	L["estimate.advance_ms"] = load.Median(adv)
	L["estimate.build_ms"] = load.Median(bld)
	return nil
}

var eventKinds = map[string]timeline.EventKind{"appear": timeline.Appear, "update": timeline.Update, "disappear": timeline.Disappear}

func toObservations(b []load.Event) []ingest.Observation {
	out := make([]ingest.Observation, len(b))
	for i, e := range b {
		out[i] = ingest.Observation{Source: e.Source, Event: timeline.Event{
			Entity: timeline.EntityID(e.Entity), Kind: eventKinds[e.Kind], At: timeline.Tick(e.At), Version: e.Version,
		}}
	}
	return out
}

// layerUnit maps a per-layer metric name to its unit.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms."):
		return "ms"
	case strings.HasSuffix(name, "_us") || strings.Contains(name, "_us.") || strings.Contains(name, "_us_"):
		return "us"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "bytes_per_op"):
		return "B/op"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_share"):
		return "ratio"
	}
	return "count"
}
