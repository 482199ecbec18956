package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// loop describes how a phase issues ops. rate > 0 is an open loop: op i is
// due at start + i/rate whether or not earlier ops have finished, and
// exactly rate × dur ops are issued. rate == 0 is a closed loop: each
// connection sends its next op when the previous one completes, until dur
// has passed.
type loop struct {
	rate  float64
	dur   time.Duration
	first int // index of the phase's first op; phases of one run use disjoint ranges
}

// phaseStats is what one phase observed from the client side.
type phaseStats struct {
	attempted int
	failed    int
	firstErr  error
	lats      []time.Duration // verified ops, each timed from its due instant
	lags      []time.Duration // how late the generator itself started each op
	elapsed   time.Duration   // phase start to last completion
}

// runLoop drives do over one connection per client. Latency runs from the
// instant an op was due, not from when it was sent, so a stall is charged
// to every op it delays. The generator's own lateness is recorded apart
// from that: the gap between the moment an op could have started (it was
// due and its connection had received the previous response) and the
// moment it did, which covers timer overshoot and the generator's
// verification work but not time the daemon kept the connection busy.
func runLoop(ctx context.Context, clients []*client, lp loop, do func(c *client, i int) error) *phaseStats {
	total := -1
	if lp.rate > 0 {
		total = int(lp.rate * lp.dur.Seconds())
	}
	var (
		next    atomic.Int64
		mu      sync.Mutex
		out     phaseStats
		lastEnd time.Time
		wg      sync.WaitGroup
	)
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var st phaseStats
			var end time.Time
			freeAt := start
			for ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				due := time.Now()
				if lp.rate > 0 {
					if k >= total {
						break
					}
					due = start.Add(time.Duration(float64(k) / lp.rate * float64(time.Second)))
					waitUntil(due)
				} else if due.Sub(start) >= lp.dur {
					break
				}
				ready := due
				if freeAt.After(ready) {
					ready = freeAt
				}
				begin := time.Now()
				st.lags = append(st.lags, begin.Sub(ready))
				c.beginOp(lp.first+k, due, begin)
				err := do(c, lp.first+k)
				end = c.lastResponse
				if end.Before(begin) {
					end = time.Now() // the op failed before any response arrived
				}
				freeAt = end
				c.endOp(end)
				st.attempted++
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
					continue
				}
				st.lats = append(st.lats, end.Sub(due))
			}
			mu.Lock()
			out.attempted += st.attempted
			out.failed += st.failed
			if out.firstErr == nil {
				out.firstErr = st.firstErr
			}
			out.lats = append(out.lats, st.lats...)
			out.lags = append(out.lags, st.lags...)
			if end.After(lastEnd) {
				lastEnd = end
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.elapsed = lastEnd.Sub(start)
	sort.Slice(out.lats, func(a, b int) bool { return out.lats[a] < out.lats[b] })
	sort.Slice(out.lags, func(a, b int) bool { return out.lags[a] < out.lags[b] })
	return &out
}

// spinMargin is how long before an op's due instant its connection stops
// sleeping and starts polling the clock. A sleeping goroutine is woken by
// a timer that fires late here — by half a millisecond at the median and
// 1.2 ms at p99, on a machine whose idle cores are halted — which is more
// than a whole read-mix op takes; released by such a timer, the open loops
// measured the generator. Polling costs the generator at most this much
// CPU per op and keeps the release within microseconds of the schedule.
const spinMargin = 2500 * time.Microsecond

// waitUntil returns at t: it sleeps until spinMargin before, then yields
// in a loop, so the connection's other goroutines keep running.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// percentile is the nearest-rank p-th percentile of sorted samples (0 for
// none).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// supportedTail is the highest percentile of the ladder 50, 90, 99, 99.9
// that n samples support: one with at least ten samples beyond it. Below
// twenty samples not even the median qualifies and it returns 0.
func supportedTail(n int) float64 {
	best := 0.0
	for _, permille := range []int{500, 900, 990, 999} {
		if n*(1000-permille)/1000 >= 10 {
			best = float64(permille) / 10
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of unsorted durations.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return percentile(s, 50)
}
