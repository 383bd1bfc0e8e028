// Command perfbench is freshsource's benchmark. It generates
// freshd's default BL worlds, serves them in process through serve.Server
// (and a gate.Pool for warm-mix) on loopback, drives one seeded workload,
// checks every output against reference digests and prints the end-to-end
// metrics, or with -trace 1 the per-layer ladder.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload cold-select --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh -record   # re-record perfbench/reference.json
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed output check
// exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"freshsource/perfbench/load"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ref      *reference
	outDir   string
}

// setups is how many load segments warm-mix and ingest-read split their
// load across, each on freshly set-up servers. setup_s and setup_cpu_s
// report the median over all of a run's set-ups.
const setups = 4

// worldSetups is how many times cold-select and ingest-read set up their
// one world per run. A single set-up's CPU time swings by about ±10 % with
// the host, and a median of four ~0.7 s set-ups moved by up to 14 % from
// run to run. Ingest-read carries load on every third set-up; cold-select
// sends one key to each. Warm-mix's ~3.5 s set-up stays at four.
const worldSetups = 12

// runResult is what one workload run measured.
type runResult struct {
	setupWall []float64 // seconds
	setupCPU  []float64 // seconds
	loadWall  time.Duration
	loadCPU   time.Duration
	// excludedCPU is CPU the benchmark itself spent inside the load phase
	// on output checks, subtracted from cpu_ms_per_op.
	excludedCPU time.Duration
	latencies   []float64 // ms, successful ops only
	attempted   int
	failed      int
	mismatches  []string
	steal       stealMeter
	diag        map[string]any
	perLayer    map[string]float64
	// windowRates, when set, are successful ops per second in consecutive
	// fixed windows of the load; goodput_per_s is their median.
	windowRates []float64
	rt          rtStats
	clientCPU   time.Duration // traced warm-mix: the client goroutines' thread CPU
	// counters sums the obs counter deltas over the load segments.
	counters map[string]int64
}

func (r *runResult) mismatch(format string, args ...any) {
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	} else if len(r.mismatches) == 20 {
		r.mismatches = append(r.mismatches, "…")
	}
}

// setupTimer measures one set-up.
type setupTimer struct {
	wall time.Time
	cpu  time.Duration
}

func startSetup() setupTimer {
	settle()
	return setupTimer{time.Now(), processCPU()}
}

// settle returns the previous set-up's memory to the OS between set-ups, so
// every set-up starts from the same resident set and rss_peak_mb is the
// peak of one set-up, not of the garbage the earlier ones left.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

func (r *runResult) endSetup(t setupTimer) {
	r.setupWall = append(r.setupWall, time.Since(t.wall).Seconds())
	r.setupCPU = append(r.setupCPU, (processCPU() - t.cpu).Seconds())
}

// loadTimer measures one load segment.
type loadTimer struct {
	wall time.Time
	cpu  time.Duration
	rt   []metrics.Sample
}

// rtStats sums Go runtime figures over the load segments.
type rtStats struct {
	allocBytes, gcCPU, totalCPU float64
	heapLiveMB                  float64 // at the end of the last segment
}

func runtimeSamples() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func (r *runResult) startLoad() loadTimer {
	r.steal.start()
	return loadTimer{time.Now(), processCPU(), runtimeSamples()}
}

func (r *runResult) endLoad(t loadTimer) {
	r.loadWall += time.Since(t.wall)
	r.loadCPU += processCPU() - t.cpu
	r.steal.stop()
	now := runtimeSamples()
	r.rt.allocBytes += sampleFloat(now[0]) - sampleFloat(t.rt[0])
	r.rt.gcCPU += sampleFloat(now[1]) - sampleFloat(t.rt[1])
	r.rt.totalCPU += sampleFloat(now[2]) - sampleFloat(t.rt[2])
	r.rt.heapLiveMB = sampleFloat(now[3]) / (1 << 20)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(options) (*runResult, error){
	"cold-select": runColdSelect,
	"warm-mix":    runWarmMix,
	"ingest-read": runIngestRead,
}

func main() {
	var (
		opt    options
		trace  int
		refArg string
		record bool
	)
	flag.StringVar(&opt.workload, "workload", "", "workload: cold-select, warm-mix or ingest-read")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed (orders the fixed op multiset)")
	flag.IntVar(&opt.seconds, "seconds", 20, "nominal load-phase length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&refArg, "reference", "perfbench/reference.json", "reference digest file")
	flag.StringVar(&opt.outDir, "out", ".bench_build/perfbench", "directory for span dumps")
	flag.BoolVar(&record, "record", false, "record the reference digests from direct calls and exit")
	flag.Parse()

	if record {
		if err := recordReference(refArg); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[opt.workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", opt.workload))
	}
	if opt.seconds < 1 {
		fatal(fmt.Errorf("-seconds must be ≥ 1"))
	}
	opt.trace = trace == 1
	if opt.trace {
		activeTracer.Store(newTracer())
	}
	ref, err := loadReference(refArg)
	if err != nil {
		fatal(err)
	}
	opt.ref = ref

	res, err := run(opt)
	if err != nil {
		fatal(err)
	}
	if opt.trace {
		if err := runLadder(opt, res); err != nil {
			fatal(err)
		}
	}
	os.Exit(report(opt, res))
}

// goodput is successful ops per second of load: the median over fixed
// windows where the workload records them, else ops over the load time.
func (r *runResult) goodput() float64 {
	if len(r.windowRates) > 0 {
		return load.Median(r.windowRates)
	}
	return float64(len(r.latencies)) / r.loadWall.Seconds()
}

// report prints the human table, the diagnostics and the final JSON line,
// and returns the exit status.
func report(opt options, r *runResult) int {
	ok := len(r.mismatches) == 0 && r.failed == 0 && len(r.latencies) > 0
	for _, m := range r.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", m)
	}

	ops := float64(len(r.latencies))
	e2e := []struct {
		name, unit string
		value      float64
		n          int
	}{
		{"setup_s", "s", load.Median(r.setupWall), len(r.setupWall)},
		{"setup_cpu_s", "s", load.Median(r.setupCPU), len(r.setupCPU)},
		{"p50_ms", "ms", load.Median(r.latencies), len(r.latencies)},
		{"goodput_per_s", "1/s", r.goodput(), len(r.latencies)},
		{"cpu_ms_per_op", "ms", float64(r.loadCPU-r.excludedCPU) / float64(time.Millisecond) / ops, len(r.latencies)},
		{"rss_peak_mb", "MB", peakRSSMB(), 1},
	}
	out := finalLine{Correct: ok, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%v\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	for _, m := range e2e {
		fmt.Printf("# %-16s %14.4f %-4s n=%d\n", m.name, m.value, m.unit, m.n)
		if !opt.trace {
			out.Metrics[m.name] = metric{m.value, m.unit}
		}
	}
	if tail, ok := load.TailPercentile(r.latencies); ok {
		fmt.Printf("# tail: p%g = %.4f ms (n=%d, %d beyond)\n", tail.Percentile, tail.Value, tail.Samples, tail.Beyond)
	} else {
		fmt.Printf("# tail: no percentile above the median has 10 samples beyond it (n=%d)\n", len(r.latencies))
	}

	diag := map[string]any{
		"steal_share":     r.steal.share(),
		"cpu_per_wall":    r.loadCPU.Seconds() / r.loadWall.Seconds(),
		"load_seconds":    r.loadWall.Seconds(),
		"excluded_cpu_s":  r.excludedCPU.Seconds(),
		"setup_wall_s":    r.setupWall,
		"setup_cpu_s":     r.setupCPU,
		"failed_checks":   len(r.mismatches),
		"latency_samples": len(r.latencies),
		"attempted":       r.attempted,
		"failed_requests": r.failed,
	}
	for k, v := range r.diag {
		diag[k] = v
	}
	if raw, err := json.Marshal(map[string]any{"diagnostics": diag}); err == nil {
		fmt.Println(string(raw))
	}

	if opt.trace {
		names := make([]string, 0, len(r.perLayer))
		for k := range r.perLayer {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			u := layerUnit(k)
			fmt.Printf("# %-40s %16.6f %s\n", k, r.perLayer[k], u)
			out.Metrics[k] = metric{r.perLayer[k], u}
		}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
	if !ok {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
