package repmem

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/rdma"
)

// Per-node I/O workers: every memory node has one persistent worker
// goroutine fed by a channel. A quorum write is an enqueue per node plus a
// wait, rather than a goroutine spawn per node per operation. The worker
// submits asynchronously when the connection supports pipelined submission
// (both built-in transports do), so many operations from many concurrent
// writers are in flight on the node's single connection at once — the
// paper's deep per-QP pipeline. Requests enqueued to one node are submitted
// in order, which together with the transport's reliable-connection
// ordering keeps same-address writes ordered per node.

// nodeQueueDepth bounds a node worker's submit queue; enqueues beyond it
// apply backpressure to writers.
const nodeQueueDepth = 256

// nodeReq is one write destined for a single memory node. done fires
// exactly once with the operation's outcome; it may run on a transport
// goroutine and must not block.
type nodeReq struct {
	region rdma.RegionID
	offset uint64
	data   []byte
	enq    time.Time
	done   func(error)
}

// nodeWorker owns one node's request channel. mu guards the channel against
// close: enqueuers send while holding the read side, stop takes the write
// side.
type nodeWorker struct {
	mu     sync.RWMutex
	ch     chan nodeReq
	closed bool
}

// startWorkers launches one worker per memory node.
func (m *Memory) startWorkers() {
	m.workers = make([]*nodeWorker, len(m.nodes))
	for i := range m.workers {
		w := &nodeWorker{ch: make(chan nodeReq, nodeQueueDepth)}
		m.workers[i] = w
		m.workerWG.Add(1)
		go m.nodeWorkerLoop(i, w.ch)
	}
}

// stopWorkers closes every worker channel; the workers drain what is queued
// and exit. Callers must still be able to reach the connections, so this
// runs before conns are torn down in Close.
func (m *Memory) stopWorkers() {
	for _, w := range m.workers {
		w.mu.Lock()
		if !w.closed {
			w.closed = true
			close(w.ch)
		}
		w.mu.Unlock()
	}
	m.workerWG.Wait()
}

// enqueue hands req to node i's worker. After the memory is closed, done
// fires immediately with ErrClosed. While a shadow is attached to slot i
// (node replacement in progress), the request is also mirrored to the
// joining node, and done fires only after BOTH complete — so range locks
// and pooled buffers stay held until the mirror has landed too.
func (m *Memory) enqueue(i int, req nodeReq) {
	req.enq = time.Now()
	w := m.workers[i]
	w.mu.RLock()
	if w.closed {
		w.mu.RUnlock()
		req.done(ErrClosed)
		return
	}
	if sh := m.shadows[i].Load(); sh != nil {
		req = sh.mirror(req)
	}
	m.stats.enqueued.Add(1)
	m.queueDepth.Inc()
	w.ch <- req
	w.mu.RUnlock()
}

// shadowNode mirrors one group slot's write stream to a joining node during
// replacement. It is the single funnel: every per-node write — WAL append,
// main-memory apply, EC chunk, integrity strip, direct write — reaches node
// i through enqueue, so mirroring there captures the full stream. The
// shadow's own worker writes synchronously; a replacement window is short
// and correctness (per-slot ordering) matters more than mirror throughput.
type shadowNode struct {
	name string
	conn rdma.Verbs

	mu     sync.RWMutex
	ch     chan nodeReq
	closed bool
	wg     sync.WaitGroup

	failed  bool
	failErr error
	errMu   sync.Mutex
}

func newShadowNode(name string, conn rdma.Verbs) *shadowNode {
	sh := &shadowNode{name: name, conn: conn, ch: make(chan nodeReq, nodeQueueDepth)}
	sh.wg.Add(1)
	go sh.loop()
	return sh
}

// shadowFanIn joins a primary completion and its mirror: the original done
// fires exactly once, after both, with the primary's outcome. The shadow's
// outcome never surfaces to writers — a failed shadow aborts the
// replacement, not the client write.
type shadowFanIn struct {
	orig    func(error)
	err     error
	pending atomic.Int32
}

func (f *shadowFanIn) finish(err error, primary bool) {
	if primary {
		f.err = err
	}
	if f.pending.Add(-1) == 0 {
		f.orig(f.err)
	}
}

// mirror enqueues a copy of req to the shadow and rewires req.done through
// a fan-in. Requests share the data buffer: the caller's buffer lifetime is
// bounded by its done firing, which now waits for the mirror as well. If
// the shadow is already detached, req passes through unchanged.
func (sh *shadowNode) mirror(req nodeReq) nodeReq {
	sh.mu.RLock()
	if sh.closed {
		sh.mu.RUnlock()
		return req
	}
	f := &shadowFanIn{orig: req.done}
	f.pending.Store(2)
	sh.ch <- nodeReq{region: req.region, offset: req.offset, data: req.data, enq: req.enq,
		done: func(err error) { f.finish(err, false) }}
	sh.mu.RUnlock()
	req.done = func(err error) { f.finish(err, true) }
	return req
}

func (sh *shadowNode) loop() {
	defer sh.wg.Done()
	for req := range sh.ch {
		var err error
		if sh.Err() != nil {
			err = sh.failErr // sticky: one lost mirror write aborts the replacement
		} else {
			err = sh.conn.Write(req.region, req.offset, req.data)
			if err != nil {
				sh.fail(err)
			}
		}
		req.done(err)
	}
}

func (sh *shadowNode) fail(err error) {
	sh.errMu.Lock()
	if !sh.failed {
		sh.failed, sh.failErr = true, err
	}
	sh.errMu.Unlock()
}

// Err returns the first mirror-write failure, if any.
func (sh *shadowNode) Err() error {
	sh.errMu.Lock()
	defer sh.errMu.Unlock()
	return sh.failErr
}

// detach stops the mirror: no new requests are accepted, queued ones drain,
// and detach returns once the last has completed. Callers detach only AFTER
// swapping the slot's primary connection to the shadow's (or on abort), so
// a drained duplicate against the swapped-in connection is harmless — the
// primary path writes the same bytes to the same addresses.
func (sh *shadowNode) detach() {
	sh.mu.Lock()
	if !sh.closed {
		sh.closed = true
		close(sh.ch)
	}
	sh.mu.Unlock()
	sh.wg.Wait()
}

// opCtx bundles an rdma.Op with its completion context so a pipelined
// submission needs no per-op closure: the ctx is pooled and fn is a method
// value bound once at construction, making the submit path allocation-free.
type opCtx struct {
	op    rdma.Op
	m     *Memory
	node  int
	conn  rdma.Verbs
	start time.Time
	done  func(error)
	fn    func(*rdma.Op)
}

var opCtxPool = sync.Pool{}

func getOpCtx() *opCtx {
	if v := opCtxPool.Get(); v != nil {
		return v.(*opCtx)
	}
	c := new(opCtx)
	c.fn = c.complete
	return c
}

// complete is the transport completion callback: it recycles the ctx, then
// feeds the outcome to the health accounting and the caller's done.
func (c *opCtx) complete(o *rdma.Op) {
	err := o.Err
	m, node, conn, start, done := c.m, c.node, c.conn, c.start, c.done
	*o = rdma.Op{}
	c.m, c.conn, c.done = nil, nil, nil
	opCtxPool.Put(c)
	m.noteResult(node, conn, time.Since(start), err)
	done(err)
}

// nodeWorkerLoop drains node i's queue. With a pipelined connection the
// loop submits and immediately moves on — completions arrive on transport
// goroutines — so the queue drains at submission speed, not round-trip
// speed.
func (m *Memory) nodeWorkerLoop(i int, ch chan nodeReq) {
	defer m.workerWG.Done()
	for req := range ch {
		m.queueDepth.Dec()
		m.stats.queueWaitUs.Add(uint64(time.Since(req.enq).Microseconds()))
		// conn redials through the circuit breaker, so a node that was down
		// at connect time (or lost its connection mid-run) is re-established
		// from the write path itself, not only by the recovery manager.
		conn, err := m.conn(i)
		if err != nil {
			m.noteResult(i, nil, 0, err)
			req.done(err)
			continue
		}
		start := time.Now()
		sub, ok := conn.(rdma.Submitter)
		if !ok {
			err := conn.Write(req.region, req.offset, req.data)
			m.noteResult(i, conn, time.Since(start), err)
			req.done(err)
			continue
		}
		c := getOpCtx()
		c.m, c.node, c.conn, c.start, c.done = m, i, conn, start, req.done
		op := &c.op
		op.Kind = rdma.OpWrite
		op.Region = req.region
		op.Offset = req.offset
		op.Data = req.data
		op.Done = c.fn
		sub.Submit(op)
	}
}

// enqueueBestEffort sends a write to a suspect node without making any
// caller wait on it. The payload is copied — the caller's buffer may be
// pooled and recycled the moment the waited-on completions finish, while a
// gray node can sit on this op until its deadline — and the outcome feeds
// only the health accounting in the worker.
func (m *Memory) enqueueBestEffort(i int, region rdma.RegionID, offset uint64, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.enqueue(i, nodeReq{region: region, offset: offset, data: cp, done: func(error) {}})
}

// quorumGroup tracks one fan-out's completions. wait returns as soon as the
// outcome is decided — need acks for success, or too many failures — while
// the group keeps counting stragglers; onAll runs exactly once after the
// final completion, when per-op resources (buffers, range locks) may be
// released.
type quorumGroup struct {
	mu        sync.Mutex
	remaining int
	total     int
	need      int
	acks      int
	decided   bool
	failed    bool
	decCh     chan struct{}
	onAll     func()
}

// newQuorumGroup creates a group over total completions needing need acks.
// If need can never be reached (need > total), the group is born decided.
func newQuorumGroup(total, need int, onAll func()) *quorumGroup {
	g := &quorumGroup{remaining: total, total: total, need: need, decCh: make(chan struct{}), onAll: onAll}
	if need > total {
		g.decided = true
		g.failed = true
		close(g.decCh)
	}
	if total == 0 {
		g.finishAll()
	}
	return g
}

func (g *quorumGroup) finishAll() {
	if g.onAll != nil {
		g.onAll()
	}
}

// ack records one completion. Safe to call from transport goroutines.
func (g *quorumGroup) ack(err error) {
	g.mu.Lock()
	g.remaining--
	if err == nil {
		g.acks++
	}
	if !g.decided {
		if g.acks >= g.need {
			g.decided = true
			close(g.decCh)
		} else if g.acks+g.remaining < g.need {
			g.decided = true
			g.failed = true
			close(g.decCh)
		}
	}
	last := g.remaining == 0
	g.mu.Unlock()
	if last {
		g.finishAll()
	}
}

// wait blocks until the outcome is decided and returns it. The failure
// message reads the ack counter at report time, so acks that arrived before
// (or even after) the fatal decision are reflected instead of the
// zero-value count the group was born with.
func (g *quorumGroup) wait() error {
	<-g.decCh
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.failed {
		return fmt.Errorf("%w: %d of %d acks (need %d)", ErrNoQuorum, g.acks, g.total, g.need)
	}
	return nil
}
