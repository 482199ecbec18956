package asyncnet

import (
	"context"
	"sync"
	"time"

	"odeproto/internal/mt19937"
	"odeproto/internal/sim"
)

// network is the wallclock transport: per-process inbox channels with
// real-time message loss and delay, plus a pending counter that tracks
// every undelivered or unprocessed message so the run can stop the moment
// the group is quiescent instead of sleeping out a fixed drain window.
type network struct {
	inboxes []chan message
	drop    float64
	maxDel  time.Duration

	// pending counts messages that are in flight (scheduled, buffered in
	// an inbox, or being handled) and timers that have not fired yet. Once
	// every process has executed all its periods, new sends can only
	// originate from handling a counted message, so pending hitting zero
	// is a stable quiescence signal.
	pending sync.WaitGroup

	mu   sync.Mutex
	rng  prng
	sent int
}

func (nw *network) send(to int, m message) {
	nw.mu.Lock()
	nw.sent++
	dropped := nw.drop > 0 && nw.rng.Float64() < nw.drop
	var delay time.Duration
	if nw.maxDel > 0 {
		delay = time.Duration(nw.rng.Int63n(int64(nw.maxDel)))
	}
	if !dropped {
		nw.pending.Add(1)
	}
	nw.mu.Unlock()
	if dropped {
		return
	}
	if delay == 0 {
		nw.deliver(to, m)
		return
	}
	time.AfterFunc(delay, func() { nw.deliver(to, m) })
}

// timeout schedules a local timer message; timers are lossless but share
// the inbox (and the pending accounting) with network deliveries.
func (nw *network) timeout(owner int, d time.Duration, m message) {
	nw.pending.Add(1)
	time.AfterFunc(d, func() { nw.deliver(owner, m) })
}

// deliver hands a counted message to its inbox; overflow counts as loss
// and settles the pending entry immediately.
func (nw *network) deliver(to int, m message) {
	select {
	case nw.inboxes[to] <- m:
	default: // inbox overflow counts as loss
		nw.pending.Done()
	}
}

// runProcess is the wallclock process main loop: one goroutine per
// participant, driven by a drifting real-time period timer and its inbox.
// ticking is signalled once when the process has executed all its periods
// (it keeps serving messages after that, until ctx is cancelled).
func (nw *network) runProcess(ctx context.Context, p *process, finished, ticking *sync.WaitGroup) {
	defer finished.Done()
	ticked := false
	tickDone := func() {
		if !ticked {
			ticked = true
			ticking.Done()
		}
	}
	// Guarantee the ticking group drains even if the context is cancelled
	// before this process finished its periods.
	defer tickDone()

	inbox := nw.inboxes[p.id]
	timer := time.NewTimer(p.startOffset())
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case m := <-inbox:
			p.handle(m)
			nw.pending.Done()
		case <-timer.C:
			if p.left > 0 {
				p.startPeriod()
				p.left--
				timer.Reset(p.periodFor())
				if p.left == 0 {
					tickDone()
				}
			}
			// After the last period, keep serving messages until ctx ends.
		}
	}
}

// runWallclock executes the run on real goroutines and timers. It returns
// as soon as the group is quiescent: every process has executed all its
// periods and the in-flight message counter has drained — no fixed
// post-run sleep, no nominal-duration watchdog.
func runWallclock(cfg *Config, tbl *sim.Table) *Result {
	root := mt19937.New(cfg.Seed)
	nw := &network{
		inboxes: make([]chan message, cfg.N),
		drop:    cfg.DropProb,
		maxDel:  cfg.MaxDelay,
		rng:     prng{root.Split(0)},
	}
	for i := range nw.inboxes {
		nw.inboxes[i] = make(chan message, 4*cfg.N/len(tbl.States)+64)
	}
	procs := newGroup(cfg.N, tbl)
	layoutProcesses(procs, cfg, nw, prng{}, tbl, nil)

	ctx, cancel := context.WithCancel(context.Background())
	var finished, ticking sync.WaitGroup
	finished.Add(cfg.N)
	ticking.Add(cfg.N)
	for i := range procs {
		procs[i].rng = prng{root.Split(uint64(i) + 1)} // a goroutine's own stream
		go nw.runProcess(ctx, &procs[i], &finished, &ticking)
	}
	// Quiescence: all periods executed, then the pending counter drains.
	// After ticking.Wait returns no process starts a period again, so new
	// messages can only be sent while handling a counted one — pending
	// reaching zero is therefore final, and the counter's longest wait is
	// the last scheduled timeout (BasePeriod/2), not a fixed multiple of
	// the nominal run length.
	ticking.Wait()
	nw.pending.Wait()
	cancel()
	finished.Wait()

	nw.mu.Lock()
	sent := nw.sent
	nw.mu.Unlock()
	trans := make([]int, len(tbl.States)*len(tbl.States))
	for i := range procs {
		for cell, n := range procs[i].trans {
			trans[cell] += n
		}
	}
	return collectResult(tbl.States, procs, trans, sent)
}
