package main

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/rpc"
)

// caller routes the load process's calls to the group's coordinator over at
// most nconn multiplexed rpc connections, all to the same siftd. While no
// coordinator is known, calls wait for one discovery goroutine that polls
// every siftd with the side-effect-free status method.
//
// rpc.Client.Call has no deadline, so every call here is bounded: a call
// still unanswered at its bound is abandoned, reported as a timeout, and
// its connections are closed and redialled.
type caller struct {
	addrs     []string
	nconn     int
	callBound time.Duration

	mu     sync.Mutex
	conns  []*rpc.Client // to the coordinator; nil while unknown
	gen    uint64        // bumped each time conns is dropped
	cur    int           // index of the coordinator in addrs, -1 unknown
	ready  chan struct{} // closed when conns is set
	closed bool
	rr     atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup // the discovery goroutine

	firstErr atomic.Value // string: the first error that ended an op
}

// noteErr keeps the first error that ended an op, for the run's report.
func (c *caller) noteErr(err error) {
	if err != nil {
		c.firstErr.CompareAndSwap(nil, err.Error())
	}
}

func newCaller(addrs []string, nconn int, callBound time.Duration) *caller {
	c := &caller{
		addrs: addrs, nconn: nconn, callBound: callBound,
		cur: -1, ready: make(chan struct{}), stop: make(chan struct{}),
	}
	c.wg.Add(1)
	go c.discover()
	return c
}

// close drops every connection and waits for discovery to exit. In-flight
// calls fail with rpc.ErrClosed.
func (c *caller) close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stop)
		for _, cl := range c.conns {
			cl.Close()
		}
		c.conns = nil
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// coordinator returns the index in addrs of the siftd the caller is
// connected to, or -1 while it has none.
func (c *caller) coordinator() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conns == nil {
		return -1
	}
	return c.cur
}

// errNoCoordinator means no coordinator was found before the op's deadline.
var errNoCoordinator = errors.New("no coordinator before deadline")

// acquire returns a connection to the coordinator, waiting for discovery
// until deadline.
func (c *caller) acquire(deadline time.Time) (*rpc.Client, uint64, error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, 0, rpc.ErrClosed
		}
		if n := len(c.conns); n > 0 {
			cl, gen := c.conns[int(c.rr.Add(1)%uint64(n))], c.gen
			c.mu.Unlock()
			return cl, gen, nil
		}
		ready := c.ready
		c.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, 0, errNoCoordinator
		}
		t := time.NewTimer(wait)
		select {
		case <-ready:
			t.Stop()
		case <-t.C:
			return nil, 0, errNoCoordinator
		case <-c.stop:
			t.Stop()
			return nil, 0, rpc.ErrClosed
		}
	}
}

// invalidate drops the connections of generation gen, if still current,
// and starts discovery.
func (c *caller) invalidate(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || gen != c.gen || c.conns == nil {
		return
	}
	for _, cl := range c.conns {
		cl.Close()
	}
	c.conns = nil
	c.gen++
	c.ready = make(chan struct{})
	c.wg.Add(1)
	go c.discover()
}

// discover polls the siftds, starting after the last coordinator, until one
// reports the coordinator role, then opens nconn connections to it. It
// keeps at most one probe connection per siftd and polls every millisecond,
// so reroute time after a promotion is bounded by about a millisecond.
func (c *caller) discover() {
	defer c.wg.Done()
	probes := make([]*rpc.Client, len(c.addrs))
	defer func() {
		for _, p := range probes {
			if p != nil {
				p.Close()
			}
		}
	}()
	c.mu.Lock()
	start := c.cur + 1
	c.mu.Unlock()
	for {
		for j := range c.addrs {
			i := (start + j) % len(c.addrs)
			if probes[i] == nil {
				p, err := rpc.Dial(c.addrs[i])
				if err != nil {
					continue
				}
				probes[i] = p
			}
			resp, err, timedOut := boundedCall(probes[i], rpc.MethodStatus, nil, 250*time.Millisecond)
			if err != nil || timedOut {
				probes[i].Close()
				probes[i] = nil
				continue
			}
			if string(resp) != "coordinator" {
				continue
			}
			conns := []*rpc.Client{probes[i]}
			probes[i] = nil
			for len(conns) < c.nconn {
				cl, err := rpc.Dial(c.addrs[i])
				if err != nil {
					break
				}
				conns = append(conns, cl)
			}
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				for _, cl := range conns {
					cl.Close()
				}
				return
			}
			c.conns, c.cur = conns, i
			close(c.ready)
			c.mu.Unlock()
			return
		}
		select {
		case <-c.stop:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// boundedCall runs cl.Call and gives up after bound. On a timeout it closes
// cl, which makes the abandoned Call return, so no goroutine outlives it.
func boundedCall(cl *rpc.Client, method uint8, payload []byte, bound time.Duration) (resp []byte, err error, timedOut bool) {
	var fired atomic.Bool
	t := time.AfterFunc(bound, func() {
		fired.Store(true)
		cl.Close()
	})
	resp, err = cl.Call(method, payload)
	if !t.Stop() && fired.Load() {
		return nil, err, true
	}
	return resp, err, false
}

// outcome classifies one op's final result.
type outcome struct {
	resp     []byte
	st       uint8
	sent     bool
	lastCall time.Time // start of the last call made
}

// do performs one KV op, retrying across coordinator changes until
// deadline. Only "not coordinator" replies and broken connections are
// retried: the op has then either not run or (for a put) may have run, and
// a retried put writes the same stamped value. A call past its bound ends
// the op as a timeout. onCall, if set, is told the span of every call.
func (c *caller) do(method uint8, payload []byte, deadline time.Time, onCall func(start, end time.Time)) outcome {
	var out outcome
	for {
		cl, gen, err := c.acquire(deadline)
		if err != nil {
			c.noteErr(err)
			out.st = stFailed
			return out
		}
		bound := c.callBound
		if rem := time.Until(deadline); rem < bound {
			bound = rem
		}
		if bound <= 0 {
			out.st = stFailed
			return out
		}
		start := time.Now()
		resp, err, timedOut := boundedCall(cl, method, payload, bound)
		if onCall != nil {
			onCall(start, time.Now())
		}
		out.lastCall = start
		out.sent = true
		switch {
		case timedOut:
			c.noteErr(errors.New("call timed out"))
			c.invalidate(gen)
			out.st = stTimeout
			return out
		case err == nil:
			out.resp, out.st = resp, stOK
			return out
		case errors.Is(err, rpc.ErrRemote):
			msg := err.Error()
			if strings.Contains(msg, "not coordinator") {
				c.invalidate(gen)
				continue
			}
			if method == rpc.MethodGet && strings.HasSuffix(msg, "not found") {
				out.st = stNotFound
				return out
			}
			c.noteErr(err)
			out.st = stFailed
			return out
		default:
			// Transport failure: the coordinator died or the connection was
			// closed under us. Find the coordinator again and retry.
			c.invalidate(gen)
		}
	}
}
