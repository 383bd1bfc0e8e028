package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"freshsource/internal/serve"
	"freshsource/perfbench/load"
)

// coldPassSeconds is the nominal length of one pass over cold-select's key
// set; -seconds buys whole passes (at least one).
const coldPassSeconds = 20

// runColdSelect: one planning client, closed loop, direct to a freshd over
// world seed 1. Each pass splits the seed-ordered key set across
// worldSetups fresh servers, so every select is a result- and problem-cache
// miss.
func runColdSelect(opt options) (*runResult, error) {
	r := &runResult{diag: map[string]any{}, counters: map[string]int64{}}
	passes := opt.seconds / coldPassSeconds
	if passes < 1 {
		passes = 1
	}
	plan := load.ColdSelectPlan(opt.seed)
	per := len(plan) / worldSetups
	client := newClient()
	perKey := map[string]float64{}
	sub := 0
	for pass := 0; pass < passes; pass++ {
		for round := 0; round < worldSetups; round++ {
			keys := plan[round*per : (round+1)*per]
			st := startSetup()
			d, err := genWorld(1)
			if err != nil {
				return nil, err
			}
			ls, err := startServer(d, serve.Config{Addr: "127.0.0.1:0"})
			if err != nil {
				return nil, err
			}
			r.endSetup(st)

			before, err := metricsSnapshot(client, ls.base)
			if err != nil {
				ls.close()
				return nil, err
			}
			lt := r.startLoad()
			for _, k := range keys {
				ms, ok := coldSelect(r, client, ls.base, k, opt)
				if ok {
					r.latencies = append(r.latencies, ms)
					perKey[k.Name()] = ms
					if k.Submodular() {
						sub++
					}
				}
			}
			r.endLoad(lt)
			after, err := metricsSnapshot(client, ls.base)
			if err != nil {
				ls.close()
				return nil, err
			}
			addCounters(r.counters, counterDelta(before, after))
			if err := ls.close(); err != nil {
				return nil, fmt.Errorf("cold-select: server shutdown: %w", err)
			}
		}
	}
	r.diag["select_ms_by_key"] = perKey
	r.diag["submodular_share"] = float64(sub) / float64(len(r.latencies))
	r.diag["problem_hits"] = r.counters["serve.registry.problem_hits"]
	r.diag["problem_misses"] = r.counters["serve.registry.problem_misses"]
	return r, nil
}

// coldSelect sends one select and checks its body against the reference.
func coldSelect(r *runResult, c *http.Client, base string, k load.SelectKey, opt options) (float64, bool) {
	r.attempted++
	body := mustJSON(k)
	t := time.Now()
	code, resp, err := call(c, http.MethodPost, base+"/v1/select", body)
	ms := float64(time.Since(t)) / float64(time.Millisecond)
	if err != nil || code != http.StatusOK {
		r.failed++
		r.mismatch("select %s: status %d err %v", k.Name(), code, err)
		return 0, false
	}
	want, ok := opt.ref.selectDigest(1, k)
	if !ok {
		r.mismatch("select %s: no reference digest", k.Name())
		return ms, true
	}
	if got := digest(resp); got != want.Digest {
		var sr serve.SelectResponse
		json.Unmarshal(resp, &sr)
		r.mismatch("select %s: body digest %.12s, reference %.12s (oracle calls %d, reference %d)",
			k.Name(), got, want.Digest, sr.OracleCalls, want.OracleCalls)
	}
	return ms, true
}

func addCounters(dst, delta map[string]int64) {
	for k, v := range delta {
		dst[k] += v
	}
}
