package load

import (
	"sort"
	"sync"
	"time"
)

// Slot is one open-loop send: its due offset from the start of the loop.
type Slot struct {
	Due time.Duration
}

// SlotResult is the outcome of one slot. Latency runs from the slot's due
// time, so a stall ahead of the slot is charged to it (no coordinated
// omission). A slot never sent before the loop's deadline has Sent false
// and counts as a failure.
type SlotResult struct {
	Sent    bool
	Late    time.Duration // send time minus due time
	Latency time.Duration // completion minus due time
	Err     error
}

// LoopStats summarizes how well the generator kept its schedule.
type LoopStats struct {
	MaxBacklog int           // most slots due but not yet sent at once
	Unsent     int           // slots never sent
	LateP99    time.Duration // 99th percentile of send lateness
	LateMax    time.Duration
}

// RunOpenLoop sends every slot at its due time from a fixed pool of
// workers (at most workers sends in flight). send performs one slot; it is
// called from worker goroutines. Slots still unsent when deadline passes
// are abandoned and reported unsent. RunOpenLoop returns once every worker
// has exited.
func RunOpenLoop(slots []Slot, workers int, deadline time.Duration, send func(i int) error) ([]SlotResult, LoopStats) {
	res := make([]SlotResult, len(slots))
	start := time.Now()
	var mu sync.Mutex
	next, maxBacklog := 0, 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(slots) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				due := start.Add(slots[i].Due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				if now.Sub(start) > deadline {
					continue
				}
				mu.Lock()
				// Slots due by now but not yet taken, plus this one.
				backlog := 1
				for j := next; j < len(slots) && start.Add(slots[j].Due).Before(now); j++ {
					backlog++
				}
				if backlog > maxBacklog {
					maxBacklog = backlog
				}
				mu.Unlock()

				err := send(i)
				done := time.Now()
				res[i] = SlotResult{Sent: true, Late: now.Sub(due), Latency: done.Sub(due), Err: err}
			}
		}()
	}
	wg.Wait()

	st := LoopStats{MaxBacklog: maxBacklog}
	var late []float64
	for _, r := range res {
		if !r.Sent {
			st.Unsent++
			continue
		}
		late = append(late, float64(r.Late))
		if r.Late > st.LateMax {
			st.LateMax = r.Late
		}
	}
	if len(late) > 0 {
		st.LateP99 = time.Duration(percentile(late, 99))
	}
	return res, st
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(float64(len(s))*p/100+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
