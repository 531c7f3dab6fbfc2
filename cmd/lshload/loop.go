package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// The two load shapes. Both run exactly `workers` goroutines (= connections)
// in this one process; the box has two cores and the count does not scale
// with it, so numbers compare across machines.

// clock abstracts time for the scheduler, so its due-time arithmetic can be
// tested without sleeping.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// doFunc performs request i of the phase's stream on the given worker.
type doFunc func(worker, i int) response

// runClosed is the closed loop: each worker sends its next request as soon
// as its previous one completes, for dur. A slow system receives less load,
// so this phase measures throughput.
func runClosed(ctx context.Context, clk clock, workers int, dur time.Duration, limit int, do doFunc) []sample {
	var next atomic.Int64
	start := clk.Now()
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				t0 := clk.Now().Sub(start)
				if t0 >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				resp := do(w, i)
				per[w] = append(per[w], sample{Req: i, Due: t0, Start: t0, End: clk.Now().Sub(start), Resp: resp})
			}
		}(w)
	}
	wg.Wait()
	return flatten(per)
}

// runOpen is the open loop: request i is due at i/rate whatever the system
// does, and its latency is timed from that due time, so a stall is charged
// to every request it delayed (no coordinated omission). Start-Due is how
// late the generator itself ran.
func runOpen(ctx context.Context, clk clock, workers int, rate float64, dur time.Duration, limit int, do doFunc) []sample {
	total := int(rate * dur.Seconds())
	if total > limit {
		total = limit
	}
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	start := clk.Now()
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := time.Duration(i) * interval
				if now := clk.Now().Sub(start); now < due {
					clk.Sleep(due - now)
				}
				t0 := clk.Now().Sub(start)
				resp := do(w, i)
				per[w] = append(per[w], sample{Req: i, Due: due, Start: t0, End: clk.Now().Sub(start), Resp: resp})
			}
		}(w)
	}
	wg.Wait()
	return flatten(per)
}

func flatten(per [][]sample) []sample {
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}
