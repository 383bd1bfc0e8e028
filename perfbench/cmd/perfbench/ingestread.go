package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"freshsource/internal/serve"
	"freshsource/internal/timeline"
	"freshsource/perfbench/load"
)

// Ingest-read's schedule: observe batches from independent producers every
// observeEvery, reads every readEvery, both open loop from a two-worker
// client; /healthz polled every pollEvery to time visibility.
const (
	ingestEpoch  = time.Second
	observeEvery = 70 * time.Millisecond
	readEvery    = 50 * time.Millisecond
	pollEvery    = 10 * time.Millisecond
	// ingestGrace bounds the wait for the last acked batch to publish after
	// the load; under heavy host steal the final commit takes seconds.
	ingestGrace = 10 * time.Second
)

type pollRecord struct {
	at                    time.Time
	gen, epoch, watermark int64
}

type readRecord struct {
	key        int
	g1, g2     uint64
	bodyDigest string
}

// runIngestRead: observe batches at a fixed rate into a freshd with a 1 s
// ingest epoch, beside a fixed-rate background of quality and freshness
// reads. One op is one observe batch; its latency runs from the ack to the
// first /healthz poll that shows a generation covering the batch's tick.
func runIngestRead(opt options) (*runResult, error) {
	r := &runResult{diag: map[string]any{}, counters: map[string]int64{}}
	client := newClient()
	segment := time.Duration(opt.seconds) * time.Second / setups
	var (
		lateP99, lateMax time.Duration
		readLateP99      time.Duration
		maxBacklog       int
		epochs           int64
		observeSent      int
	)
	for round := 0; round < worldSetups; round++ {
		st := startSetup()
		d, err := genWorld(1)
		if err != nil {
			return nil, err
		}
		ls, err := startServer(d, serve.Config{Addr: "127.0.0.1:0", IngestEpoch: ingestEpoch})
		if err != nil {
			return nil, err
		}
		r.endSetup(st)
		if round%(worldSetups/setups) != 0 {
			if err := ls.close(); err != nil {
				return nil, fmt.Errorf("ingest-read: shutdown: %w", err)
			}
			continue
		}
		seg := int64(round / (worldSetups / setups))

		before, err := metricsSnapshot(client, ls.base)
		if err != nil {
			ls.close()
			return nil, err
		}
		out, err := ingestSegment(r, client, ls, d.T0, d.Horizon(), len(d.Sources), d.World.NumEntities(), segment, opt.seed*1000+seg)
		if err != nil {
			ls.close()
			return nil, err
		}
		after, err := metricsSnapshot(client, ls.base)
		if err != nil {
			ls.close()
			return nil, err
		}
		addCounters(r.counters, counterDelta(before, after))
		if err := ls.close(); err != nil {
			return nil, fmt.Errorf("ingest-read: shutdown: %w", err)
		}
		if out.loop.LateP99 > lateP99 {
			lateP99 = out.loop.LateP99
		}
		if out.readLoop.LateP99 > readLateP99 {
			readLateP99 = out.readLoop.LateP99
		}
		if out.loop.LateMax > lateMax {
			lateMax = out.loop.LateMax
		}
		if out.loop.MaxBacklog > maxBacklog {
			maxBacklog = out.loop.MaxBacklog
		}
		epochs += out.epochs
		observeSent += out.observeSent
	}
	r.diag["generator_late_p99_ms"] = float64(lateP99) / float64(time.Millisecond)
	r.diag["generator_late_max_ms"] = float64(lateMax) / float64(time.Millisecond)
	r.diag["generator_max_backlog"] = maxBacklog
	r.diag["read_late_p99_ms"] = float64(readLateP99) / float64(time.Millisecond)
	// The producers lag when a slot comes due while an earlier one still
	// waits, or when sends run late by a whole period. A single send a few
	// tens of milliseconds late while a commit holds both cores is reported
	// above but not flagged.
	r.diag["generator_lagging"] = maxBacklog > 1 || lateP99 > observeEvery
	r.diag["epochs"] = epochs
	r.diag["state_misses"] = r.counters["serve.registry.state_misses"]
	r.diag["state_hits"] = r.counters["serve.registry.state_hits"]
	r.diag["result_hits"] = r.counters["serve.registry.result_hits"]
	r.diag["result_misses"] = r.counters["serve.registry.result_misses"]
	if observeSent > 0 {
		r.diag["stale_share"] = float64(r.counters["serve.ingest.stale"]) / float64(observeSent)
	}
	return r, nil
}

type segmentOut struct {
	loop        load.LoopStats // the observe stream
	readLoop    load.LoopStats
	epochs      int64
	observeSent int
}

// published reports whether a /healthz poll shows a published generation
// covering tick: the watermark covers it, and the generation has caught up
// with the epochs committed since base. An epoch counts as committed once
// it is folded, before its refit is published; /healthz reads the
// generation before the epoch, so a poll taken mid-publish never reads as
// published.
func published(p, base pollRecord, tick int64) bool {
	return p.watermark >= tick && p.gen-base.gen >= p.epoch-base.epoch
}

// ingestSegment runs one load segment against a live ingesting server.
func ingestSegment(r *runResult, client *http.Client, ls *liveServer, t0 timeline.Tick, horizon timeline.Tick, sources, entities int, length time.Duration, seed int64) (segmentOut, error) {
	nObs := int(length / observeEvery)
	nRead := int(length / readEvery)
	batches := load.IngestPlan(seed, nObs, sources, entities, int64(t0))
	type slotKind struct {
		observe int // batch index, or -1
		read    int // read index (quality key, or len(keys) for freshness)
	}
	// Slot i < nObs is observe batch i; slot nObs+j is read j. Reads are
	// offset by half a period so the two streams interleave.
	keys := load.HotQualityKeys()
	rng := rand.New(rand.NewSource(seed))
	readOrder := rng.Perm(nRead)
	obsSlots := make([]load.Slot, nObs)
	readSlots := make([]load.Slot, nRead)
	kinds := make([]slotKind, nObs+nRead)
	for i := range obsSlots {
		obsSlots[i] = load.Slot{Due: time.Duration(i) * observeEvery}
		kinds[i] = slotKind{observe: i, read: -1}
	}
	for j := range readSlots {
		readSlots[j] = load.Slot{Due: time.Duration(j)*readEvery + readEvery/2}
		kinds[nObs+j] = slotKind{observe: -1, read: readOrder[j] % (len(keys) + 1)}
	}

	acks := make([]time.Time, nObs)
	acked := make([]bool, nObs)
	var mu sync.Mutex
	var reads []readRecord

	// current reads the server's state in process, in the same order as
	// /healthz: generation first.
	current := func() pollRecord {
		g := int64(ls.srv.Generation())
		in := ls.srv.Ingester()
		return pollRecord{gen: g, epoch: int64(in.Seq()), watermark: int64(in.Watermark())}
	}
	base := current()

	// Poller and reference checker run until the segment (and its
	// visibility tail) ends.
	stop := make(chan struct{})
	var polls []pollRecord
	var pollErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		polls, pollErr = pollHealth(client, ls.base, stop)
	}()
	refs := map[uint64][]string{}
	var checkCPU time.Duration
	go func() {
		defer wg.Done()
		checkCPU = trackReferences(ls.srv, horizon, keys, stop, refs, &mu)
	}()

	send := func(i int) error {
		k := kinds[i]
		if k.observe >= 0 {
			body := mustJSON(map[string]any{"observations": batches[k.observe]})
			code, resp, err := call(client, http.MethodPost, ls.base+"/v1/observe", body)
			if err != nil {
				return err
			}
			if code != http.StatusAccepted {
				return fmt.Errorf("observe: status %d: %s", code, resp)
			}
			acks[k.observe], acked[k.observe] = time.Now(), true
			return nil
		}
		if k.read == len(keys) {
			code, _, err := call(client, http.MethodGet, ls.base+"/v1/freshness", nil)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("freshness: status %d", code)
			}
			return err
		}
		g1 := ls.srv.Generation()
		code, resp, err := call(client, http.MethodPost, ls.base+"/v1/quality", mustJSON(keys[k.read]))
		g2 := ls.srv.Generation()
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("quality: status %d", code)
		}
		mu.Lock()
		reads = append(reads, readRecord{key: k.read, g1: g1, g2: g2, bodyDigest: digest(resp)})
		mu.Unlock()
		return nil
	}

	// The producers' stream and the read background are separate open
	// loops with one sender each: at most two requests in flight.
	lt := r.startLoad()
	var results, readResults []load.SlotResult
	var loop, readLoop load.LoopStats
	var lw sync.WaitGroup
	lw.Add(1)
	go func() {
		defer lw.Done()
		readResults, readLoop = load.RunOpenLoop(readSlots, 1, length+time.Second, func(i int) error { return send(nObs + i) })
	}()
	results, loop = load.RunOpenLoop(obsSlots, 1, length+time.Second, send)
	lw.Wait()
	results = append(results, readResults...)

	// Wait for the last acked batch to be published.
	var maxTick int64
	for i, ok := range acked {
		if ok && batches[i][0].At > maxTick {
			maxTick = batches[i][0].At
		}
	}
	deadline := time.Now().Add(ingestGrace)
	for time.Now().Before(deadline) && !published(current(), base, maxTick) {
		time.Sleep(pollEvery)
	}
	close(stop) // the poller polls once more, so it sees the final publish
	wg.Wait()
	r.endLoad(lt)
	r.excludedCPU += checkCPU
	if pollErr != nil {
		return segmentOut{}, pollErr
	}

	out := segmentOut{loop: loop, readLoop: readLoop}
	for i, res := range results {
		r.attempted++
		if !res.Sent || res.Err != nil {
			r.failed++
			if res.Err != nil {
				r.mismatch("ingest-read slot %d: %v", i, res.Err)
			}
		}
	}

	// Monotone epoch, watermark and generation.
	for i := 1; i < len(polls); i++ {
		a, b := polls[i-1], polls[i]
		if b.gen < a.gen || b.epoch < a.epoch || b.watermark < a.watermark {
			r.mismatch("ingest-read: /healthz went backwards: %+v then %+v", a, b)
			break
		}
	}
	if n := len(polls); n > 0 {
		out.epochs = polls[n-1].epoch - polls[0].epoch
	}

	// Visibility: first poll completing after the ack that shows a published
	// generation covering the batch.
	for b := range batches {
		if !acked[b] {
			continue
		}
		out.observeSent++
		tick := batches[b][0].At
		seen := false
		for _, p := range polls {
			if !p.at.Before(acks[b]) && published(p, polls[0], tick) {
				r.latencies = append(r.latencies, float64(p.at.Sub(acks[b]))/float64(time.Millisecond))
				seen = true
				break
			}
		}
		if !seen {
			r.failed++
			r.mismatch("ingest-read: acked batch at tick %d was never published", tick)
		}
	}

	// Every quality body matches the direct evaluation on its generation.
	for _, rd := range reads {
		ok := false
		for _, g := range []uint64{rd.g1, rd.g2} {
			if ds, have := refs[g]; have && ds[rd.key] == rd.bodyDigest {
				ok = true
			}
		}
		if !ok {
			r.mismatch("ingest-read: quality %s on generation %d..%d matches no reference", keys[rd.key].Name(), rd.g1, rd.g2)
		}
	}
	return out, nil
}

// pollHealth polls /healthz until stop closes, then once more: a poll in
// flight when the segment ends may predate the final publish.
func pollHealth(c *http.Client, base string, stop <-chan struct{}) ([]pollRecord, error) {
	var out []pollRecord
	final := false
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for {
		code, body, err := call(c, http.MethodGet, base+"/healthz", nil)
		if err != nil || code != http.StatusOK {
			return out, fmt.Errorf("healthz: status %d err %v", code, err)
		}
		var h struct {
			Generation int64 `json:"generation"`
			Ingest     struct {
				Epoch     int64 `json:"epoch"`
				Watermark int64 `json:"watermark"`
			} `json:"ingest"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			return out, fmt.Errorf("healthz: %w", err)
		}
		out = append(out, pollRecord{at: time.Now(), gen: h.Generation, epoch: h.Ingest.Epoch, watermark: h.Ingest.Watermark})
		if final {
			return out, nil
		}
		select {
		case <-stop:
			final = true
		case <-tick.C:
		}
	}
}

// trackReferences computes, on its own OS thread, the reference digest of
// every hot quality key on every generation the server publishes, from
// direct Estimator.QualityMultiState calls. It returns the thread's CPU
// time, which the run excludes from cpu_ms_per_op.
func trackReferences(srv *serve.Server, horizon timeline.Tick, keys []load.QualityKey, stop <-chan struct{}, refs map[uint64][]string, mu *sync.Mutex) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	var last uint64
	for {
		g1 := srv.Generation()
		if g1 != last {
			reg := srv.Registry()
			if srv.Generation() == g1 {
				tr, err := reg.Trained(context.Background(), nil)
				if err == nil {
					ds := make([]string, len(keys))
					for i, k := range keys {
						ds[i] = digest(directQualityBody(tr.Est, tr.T0(), horizon, k))
					}
					mu.Lock()
					refs[g1] = ds
					mu.Unlock()
					last = g1
				}
			}
		}
		select {
		case <-stop:
			return threadCPU() - start
		case <-time.After(2 * time.Millisecond):
		}
	}
}
