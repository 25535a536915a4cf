package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/rpc"
)

// arrival is one scheduled op of an open-loop phase.
type arrival struct {
	at  time.Duration // offset from the phase start
	key int32
	put bool
	seq uint64 // stamp for a put
}

// schedule draws a Poisson arrival process at rate ops/s over dur, with
// keys uniform over nkeys and a getFrac share of gets. The schedule is a
// function of rng's state only; put stamps are seqBase+1, seqBase+2, ...
func schedule(rng *rand.Rand, rate float64, dur time.Duration, nkeys int, getFrac float64, seqBase uint64) []arrival {
	out := make([]arrival, 0, int(rate*dur.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * 1e9)
		if at >= dur {
			return out
		}
		a := arrival{at: at, key: int32(rng.Intn(nkeys)), put: rng.Float64() >= getFrac}
		if a.put {
			seqBase++
			a.seq = seqBase
		}
		out = append(out, a)
	}
}

// phase is the record of one open-loop window.
type phase struct {
	name     string
	rate     float64
	start    time.Time
	dur      time.Duration
	ops      []opRec
	dropped  int // arrivals refused because maxInflight ops were outstanding
	backlog  int // ops still outstanding when the window closed
	cpuStart float64
	cpuEnd   float64 // the load process's own CPU seconds at the window edges
}

// loadgen runs open-loop phases against a group through one caller. Each
// arrival is sent at its scheduled time from its own goroutine, whatever
// the state of earlier ops, and its latency runs from that scheduled time,
// so a stalled server's queue shows in the tail instead of pausing the
// load.
type loadgen struct {
	c       *caller
	epoch   time.Time
	opBound time.Duration // from due time to giving up on an op
	tr      *tracer       // nil unless tracing

	firstOK atomic.Int64 // ns since epoch of the first OK reply to a call sent after watchAt
	watchAt atomic.Int64
	halt    atomic.Bool // set during a phase to stop sending and close its window
}

// watch arms the loadgen to record the first op that completes OK through
// a call sent after t, so a reply already in flight at t does not count.
func (g *loadgen) watch(t time.Time) {
	g.firstOK.Store(0)
	g.watchAt.Store(int64(t.Sub(g.epoch)))
}

// since converts a wall time to ns since the run's epoch.
func (g *loadgen) since(t time.Time) int64 { return int64(t.Sub(g.epoch)) }

// run executes one phase: the arrivals in sched, over a window of dur,
// with at most maxInflight ops outstanding. An arrival that finds
// maxInflight ops outstanding is dropped, and with stopOnDrop it also ends
// the phase's sending, so an overloaded step is not held at saturation.
// edge, if set, is called just before the window opens (false) and as it
// closes (true); setting g.halt closes the window early. run returns once
// every op sent has finished (each is bounded by opBound).
func (g *loadgen) run(name string, rate float64, sched []arrival, dur time.Duration, maxInflight int, stopOnDrop bool, edge func(end bool)) *phase {
	p := &phase{name: name, rate: rate, dur: dur, ops: make([]opRec, len(sched))}
	var (
		inflight atomic.Int64
		wg       sync.WaitGroup
	)
	g.halt.Store(false)
	if edge != nil {
		edge(false)
	}
	p.cpuStart, _ = procCPU("self")
	p.start = time.Now()
	for i := range sched {
		a := &sched[i]
		r := &p.ops[i]
		due := p.start.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if g.halt.Load() {
			p.ops = p.ops[:i]
			break
		}
		r.due, r.key, r.put, r.seq = g.since(due), a.key, a.put, a.seq
		if inflight.Load() >= int64(maxInflight) {
			r.st = stDropped
			p.dropped++
			if stopOnDrop {
				p.ops = p.ops[:i+1]
				break
			}
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.exec(r, due, due.Add(g.opBound))
			inflight.Add(-1)
		}()
	}
	if d := time.Until(p.start.Add(dur)); d > 0 && !g.halt.Load() {
		time.Sleep(d)
	}
	if g.halt.Load() {
		p.dur = time.Since(p.start)
	}
	p.backlog = int(inflight.Load())
	p.cpuEnd, _ = procCPU("self")
	if edge != nil {
		edge(true)
	}
	wg.Wait()
	return p
}

// exec performs one op scheduled for due, giving up at deadline, and
// fills in r.
func (g *loadgen) exec(r *opRec, due, deadline time.Time) {
	key := keyName(r.key)
	var payload []byte
	method := rpc.MethodGet
	if r.put {
		method = rpc.MethodPut
		payload = rpc.EncodeKV(key, makeValue(r.seq, r.key))
	} else {
		payload = rpc.EncodeKV(key, nil)
	}
	var onCall func(start, end time.Time)
	id := g.tr.newID()
	if g.tr != nil {
		onCall = func(start, end time.Time) { g.tr.record(g.tr.newID(), id, "rpc.call", start, end) }
	}
	start := time.Now()
	r.inv = g.since(start)
	out := g.c.do(method, payload, deadline, onCall)
	end := time.Now()
	r.done = g.since(end)
	r.st, r.sent = out.st, out.sent
	if !r.put && out.st == stOK {
		seq, err := decodeValue(r.key, out.resp)
		if err != nil {
			r.st = stBadValue
		}
		r.seq = seq
	}
	g.tr.record(id, 0, "op", due, end)
	if r.st == stOK {
		if w := g.watchAt.Load(); w > 0 && g.since(out.lastCall) > w {
			for {
				cur := g.firstOK.Load()
				if (cur != 0 && cur <= r.done) || g.firstOK.CompareAndSwap(cur, r.done) {
					break
				}
			}
		}
	}
}

// closedLoop runs ops from sched with conc ops outstanding at a time, each
// sent as soon as a slot frees (to populate and to read back the working
// set). Ops still unsent at deadline fail unsent, and no op outlives it, so
// a group that cannot serve ends the loop at deadline.
func (g *loadgen) closedLoop(sched []arrival, conc int, deadline time.Time) []opRec {
	ops := make([]opRec, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				r := &ops[i]
				r.key, r.put, r.seq = sched[i].key, sched[i].put, sched[i].seq
				now := time.Now()
				r.due = g.since(now)
				if !now.Before(deadline) {
					r.inv, r.done, r.st = r.due, r.due, stFailed
					continue
				}
				g.exec(r, now, deadline)
			}
		}()
	}
	wg.Wait()
	return ops
}

// phaseStats summarises a phase's ops.
type phaseStats struct {
	attempted, ok, failed, dropped int
	p50, p99, tail                 float64 // ms; failed ops count as +Inf
	tailPct                        float64 // percentile reported as tail
	tailBeyond                     int     // samples beyond it
	lateP50us, lateP99us           float64 // generator lateness: first send minus due, µs
	lgCPUusPerOp                   float64
}

func (p *phase) stats() phaseStats {
	var s phaseStats
	lat := make([]float64, 0, len(p.ops))
	late := make([]float64, 0, len(p.ops))
	for i := range p.ops {
		r := &p.ops[i]
		if r.st == stDropped {
			s.dropped++
			continue
		}
		s.attempted++
		if r.st == stOK {
			s.ok++
		} else {
			s.failed++
		}
		lat = append(lat, r.latency())
		late = append(late, float64(r.inv-r.due)/1e3)
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	s.p50, s.p99 = quantile(lat, 0.50), quantile(lat, 0.99)
	s.tailPct, s.tailBeyond = tailPercentile(len(lat))
	s.tail = quantile(lat, s.tailPct/100)
	s.lateP50us, s.lateP99us = quantile(late, 0.5), quantile(late, 0.99)
	if s.attempted > 0 {
		s.lgCPUusPerOp = (p.cpuEnd - p.cpuStart) * 1e6 / float64(s.attempted)
	}
	if math.IsNaN(s.p50) {
		s.p50, s.p99, s.tail = math.Inf(1), math.Inf(1), math.Inf(1)
	}
	return s
}
