package load

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"freshsource/internal/gate"
)

// multiset renders ops as sorted labels, so two plans compare as multisets.
func multiset[T any](ops []T, label func(T) string) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = label(o)
	}
	sort.Strings(out)
	return out
}

func keyLabel(k SelectKey) string { return k.Name() }
func opLabel(o Op) string         { return fmt.Sprintf("%s/%s/%d", o.Class, o.Tenant, o.Key) }

func TestPlansRepeatPerSeed(t *testing.T) {
	if !reflect.DeepEqual(ColdSelectPlan(7), ColdSelectPlan(7)) {
		t.Fatal("cold-select plan differs for one seed")
	}
	tenants := []string{"bl1", "bl2"}
	if !reflect.DeepEqual(WarmMixPlan(7, tenants, 400), WarmMixPlan(7, tenants, 400)) {
		t.Fatal("warm-mix plan differs for one seed")
	}
	if !reflect.DeepEqual(IngestPlan(7, 50, 43, 1000, 300), IngestPlan(7, 50, 43, 1000, 300)) {
		t.Fatal("ingest plan differs for one seed")
	}
}

func TestSeedsSharemultiset(t *testing.T) {
	a, b := ColdSelectPlan(1), ColdSelectPlan(2)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 give the same cold-select order")
	}
	if !reflect.DeepEqual(multiset(a, keyLabel), multiset(b, keyLabel)) {
		t.Fatal("cold-select key multiset depends on the seed")
	}
	seen := map[string]bool{}
	sub := 0
	for _, k := range a {
		if seen[k.Name()] {
			t.Fatalf("cold-select key %s repeats", k.Name())
		}
		seen[k.Name()] = true
		if k.Submodular() {
			sub++
		}
	}
	if sub*2 != len(a) {
		t.Fatalf("submodular keys = %d of %d, want half", sub, len(a))
	}

	tenants := []string{"bl1", "bl2"}
	wa, wb := WarmMixPlan(1, tenants, 4000), WarmMixPlan(2, tenants, 4000)
	if !reflect.DeepEqual(multiset(wa, opLabel), multiset(wb, opLabel)) {
		t.Fatal("warm-mix op multiset depends on the seed")
	}
	count := func(ops []Op) map[Class]int {
		m := map[Class]int{}
		for _, o := range ops {
			m[o.Class]++
		}
		return m
	}
	if ca, cb := count(wa), count(wb); !reflect.DeepEqual(ca, cb) {
		t.Fatalf("class counts differ: %v vs %v", ca, cb)
	}

	ia, ib := IngestPlan(1, 30, 43, 1000, 300), IngestPlan(2, 30, 43, 1000, 300)
	for i := range ia {
		if len(ia[i]) != len(ib[i]) || ia[i][0].At != ib[i][0].At {
			t.Fatalf("batch %d differs in size or tick across seeds", i)
		}
		kinds := func(b []Event) []string {
			var ks []string
			for _, e := range b {
				ks = append(ks, e.Kind)
			}
			return ks
		}
		if !reflect.DeepEqual(kinds(ia[i]), kinds(ib[i])) {
			t.Fatalf("batch %d differs in kinds across seeds", i)
		}
	}
}

func TestHotSelectKeysAreColdKeys(t *testing.T) {
	cold := map[string]bool{}
	for _, k := range ColdSelectKeys() {
		cold[k.Name()] = true
	}
	for _, k := range HotSelectKeys() {
		if !cold[k.Name()] {
			t.Fatalf("hot select key %s is not a cold-select key", k.Name())
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	tail, ok := TailPercentile(xs)
	if !ok || tail.Percentile != 99 || tail.Value != 990 || tail.Samples != 1000 || tail.Beyond != 10 {
		t.Fatalf("1000 samples: got %+v ok=%v, want p99=990 with 10 beyond", tail, ok)
	}
	tail, ok = TailPercentile(xs[:100])
	if !ok || tail.Percentile != 90 || tail.Value != 90 || tail.Beyond != 10 {
		t.Fatalf("100 samples: got %+v, want p90=90", tail)
	}
	tail, ok = TailPercentile(xs[:25])
	if !ok || tail.Percentile != 50 || tail.Beyond < 10 {
		t.Fatalf("25 samples: got %+v, want p50", tail)
	}
	if _, ok := TailPercentile(xs[:12]); ok {
		t.Fatal("12 samples: a percentile with 10 beyond should not exist")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := Quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestOpenLoopChargesStall(t *testing.T) {
	slots := []Slot{{0}, {10 * time.Millisecond}, {20 * time.Millisecond}}
	res, st := RunOpenLoop(slots, 1, time.Second, func(i int) error {
		if i == 0 {
			time.Sleep(100 * time.Millisecond) // the stall
		}
		return nil
	})
	for i, r := range res {
		if !r.Sent {
			t.Fatalf("slot %d unsent", i)
		}
	}
	// Slots 1 and 2 queued behind the stall: their latency runs from their
	// due time, so it includes the ~90 and ~80 ms they waited.
	if res[1].Latency < 80*time.Millisecond || res[2].Latency < 70*time.Millisecond {
		t.Fatalf("stall not charged: latencies %v %v", res[1].Latency, res[2].Latency)
	}
	if st.MaxBacklog < 2 {
		t.Fatalf("backlog %d, want ≥ 2 slots queued behind the stall", st.MaxBacklog)
	}
}

func TestOpenLoopCountsUnsentSlots(t *testing.T) {
	slots := []Slot{{0}, {time.Millisecond}, {2 * time.Millisecond}}
	res, st := RunOpenLoop(slots, 1, 20*time.Millisecond, func(i int) error {
		time.Sleep(50 * time.Millisecond)
		return errors.New("slow")
	})
	if st.Unsent != 2 || res[1].Sent || res[2].Sent {
		t.Fatalf("unsent = %d, want the 2 slots due behind a stall past the deadline", st.Unsent)
	}
}

// fakeListener is a net.Listener that only has an address.
type fakeListener struct {
	port   int
	closed *bool
}

func (f fakeListener) Accept() (net.Conn, error) { return nil, errors.New("fake") }
func (f fakeListener) Close() error              { *f.closed = true; return nil }
func (f fakeListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: f.port}
}

func TestLayoutIgnoresPorts(t *testing.T) {
	tenants := []string{"bl1", "bl2"}
	rng := rand.New(rand.NewSource(1))
	replaced := 0
	for run := 0; run < 200; run++ {
		var opened []fakeListener
		listen := func() (net.Listener, error) {
			ln := fakeListener{port: 32768 + rng.Intn(28000), closed: new(bool)}
			opened = append(opened, ln)
			return ln, nil
		}
		lns, err := SplitListeners(listen, tenants)
		if err != nil {
			t.Fatal(err)
		}
		urls := []string{BackendURL(lns[0]), BackendURL(lns[1])}
		p, err := NewGatePool(urls, gate.Config{DefaultTenant: "bl1"})
		if err != nil {
			t.Fatal(err)
		}
		// By role the layout never moves: tenant i homes on backend i.
		homes := Homes(p, tenants)
		if homes["bl1"] != urls[0] || homes["bl2"] != urls[1] {
			t.Fatalf("run %d: homes %v over %v, want bl1 on the first and bl2 on the second", run, homes, urls)
		}
		for _, ln := range opened {
			kept := ln == lns[0] || ln == lns[1]
			if kept == *ln.closed {
				t.Fatalf("run %d: listener on port %d kept=%v closed=%v", run, ln.port, kept, *ln.closed)
			}
		}
		replaced += len(opened) - 2
	}
	// Half the port pairs home both tenants on one backend, so the retry
	// path must have run.
	if replaced == 0 {
		t.Fatal("no listener was ever replaced")
	}
}
