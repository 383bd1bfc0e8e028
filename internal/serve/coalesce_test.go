package serve

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshsource/internal/obs"
)

// TestCoalescerDedupe: with a long window held open, every concurrent Do on
// the same key collapses into one compute. Determinism: the leader's hold is
// ended by canceling its context only after every follower has registered,
// so the follower count is exact, not timing-dependent.
func TestCoalescerDedupe(t *testing.T) {
	obs.Enable()
	c := newCoalescer(time.Hour, "test.coalesce.dedupe")
	var computes atomic.Int64
	compute := func() (int, []byte) {
		computes.Add(1)
		return 200, []byte("payload")
	}

	leadCtx, endHold := context.WithCancel(context.Background())
	results := make(chan string, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, body, err := c.Do(leadCtx, "k", compute)
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		results <- string(body)
	}()
	// Wait for the leader's flight to register, then pile on followers.
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	f0 := obs.Active().Counter("test.coalesce.dedupe.followers").Value()
	for i := 0; i < 7; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, body, err := c.Do(context.Background(), "k", compute)
			if err != nil {
				t.Errorf("follower: %v", err)
			}
			results <- string(body)
		}()
	}
	for obs.Active().Counter("test.coalesce.dedupe.followers").Value()-f0 < 7 {
		time.Sleep(time.Millisecond)
	}
	endHold() // all followers joined; end the collect phase
	wg.Wait()
	close(results)

	if got := computes.Load(); got != 1 {
		t.Errorf("computes = %d, want 1", got)
	}
	for body := range results {
		if body != "payload" {
			t.Errorf("body %q", body)
		}
	}
}

// TestCoalescerZeroWindow: with no batch window, in-flight dedupe still
// holds — requests arriving while the leader computes share its result.
func TestCoalescerZeroWindow(t *testing.T) {
	obs.Enable()
	c := newCoalescer(0, "test.coalesce.zero")
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(context.Background(), "k", func() (int, []byte) {
			computes.Add(1)
			<-release
			return 200, []byte("x")
		})
	}()
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Read the follower count before any follower can join, or one that
	// joins first is never seen and the wait below never ends.
	f0 := obs.Active().Counter("test.coalesce.zero.followers").Value()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, body, err := c.Do(context.Background(), "k", func() (int, []byte) {
				computes.Add(1)
				return 200, []byte("x")
			})
			if err != nil || string(body) != "x" {
				t.Errorf("follower: %q %v", body, err)
			}
		}()
	}
	for obs.Active().Counter("test.coalesce.zero.followers").Value()-f0 < 4 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("computes = %d, want 1", got)
	}
}

// TestCoalescerFollowerCancel: a follower whose context fires while waiting
// gets its context error; the leader's flight is unaffected.
func TestCoalescerFollowerCancel(t *testing.T) {
	obs.Enable()
	c := newCoalescer(0, "test.coalesce.cancel")
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), "k", func() (int, []byte) {
			<-release
			return 200, []byte("x")
		})
	}()
	for {
		c.mu.Lock()
		n := len(c.flights)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", nil); err != context.Canceled {
		t.Errorf("canceled follower: err = %v, want context.Canceled", err)
	}
	close(release)
	<-done
}

// TestCoalescerDistinctKeys: different keys never share a flight.
func TestCoalescerDistinctKeys(t *testing.T) {
	obs.Enable()
	c := newCoalescer(0, "test.coalesce.distinct")
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		key := string(rune('a' + i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do(context.Background(), key, func() (int, []byte) {
				computes.Add(1)
				return 200, []byte(key)
			})
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 4 {
		t.Errorf("computes = %d, want 4", got)
	}
}

// TestCoalescedByteIdentical pins the tentpole exactness contract end to
// end: concurrent identical requests through a server with a generous batch
// window produce responses byte-identical to an uncoalesced server —
// select and quality.
func TestCoalescedByteIdentical(t *testing.T) {
	plain := newServer(t, Config{CoalesceWindow: -1, MaxInflight: 64}) // pure dedupe, no hold
	defer plain.Close()
	batched := newServer(t, Config{CoalesceWindow: 30 * time.Millisecond, MaxInflight: 64})
	defer batched.Close()

	cases := []struct{ path, body string }{
		{"/v1/select", `{"algorithm":"greedy","future":4}`},
		{"/v1/select", `{"algorithm":"maxsub","future":4}`},
		{"/v1/quality", `{"set":[0,2,5],"ticks":[150,200]}`},
	}
	for _, tc := range cases {
		want := postJSON(t, plain.Handler(), tc.path, tc.body)
		if want.Code != http.StatusOK {
			t.Fatalf("reference %s: %d %s", tc.path, want.Code, want.Body.String())
		}
		leaders0 := counter("serve.tenant.default.coalesce.select.leaders") +
			counter("serve.tenant.default.coalesce.quality.leaders")

		const n = 12
		var wg sync.WaitGroup
		bodies := make([]string, n)
		codes := make([]int, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := postJSON(t, batched.Handler(), tc.path, tc.body)
				codes[i], bodies[i] = rec.Code, rec.Body.String()
			}()
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if codes[i] != http.StatusOK {
				t.Fatalf("%s[%d]: %d %s", tc.path, i, codes[i], bodies[i])
			}
			if bodies[i] != want.Body.String() {
				t.Errorf("%s[%d]: coalesced bytes differ from the uncoalesced server", tc.path, i)
			}
		}
		// At most a handful of solver passes ran: every response after the
		// first flight came from a coalesced flight or the result cache.
		leaders := counter("serve.tenant.default.coalesce.select.leaders") +
			counter("serve.tenant.default.coalesce.quality.leaders") - leaders0
		if leaders < 1 || leaders > n/2 {
			t.Errorf("%s: %d leaders for %d concurrent identical requests", tc.path, leaders, n)
		}
	}
}

// TestCoalesceWindowConfig: 0 means the 2ms default, negative disables the
// hold entirely.
func TestCoalesceWindowConfig(t *testing.T) {
	if got := (Config{}).withDefaults().CoalesceWindow; got != 2*time.Millisecond {
		t.Errorf("default window = %v, want 2ms", got)
	}
	if got := (Config{CoalesceWindow: -1, MaxInflight: 64}).withDefaults().CoalesceWindow; got != 0 {
		t.Errorf("negative window = %v, want 0", got)
	}
	if got := (Config{CoalesceWindow: 5 * time.Millisecond}).withDefaults().CoalesceWindow; got != 5*time.Millisecond {
		t.Errorf("explicit window = %v, want 5ms", got)
	}
}
