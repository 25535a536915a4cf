package repmem

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"time"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/metrics"
	"github.com/repro/sift/internal/rdma"
)

// Memory-node health: one state machine per node. Failures are detected from
// the outcomes of one-sided operations alone (noteResult), from checksum
// mismatches (noteCorruption), and from the recovery manager's probes
// (probeHealth); every state change after New goes through transition, which
// admits only the moves in healthTable and applies that row's side effects.

// Node health states.
const (
	nodeLive     int32 = iota // serving reads, receiving writes
	nodeDead                  // unreachable; excluded from everything
	nodeSyncing               // reconnected; receiving writes, not yet readable
	nodeSuspect               // gray: quorums stop waiting on it, writes continue best-effort
	nodeDegraded              // persistently slow but responsive (WAN replica); served around without repair churn
	numNodeStates
)

// Fixed detection thresholds.
const (
	// suspectAfter and deadAfter are the consecutive per-operation deadline
	// expiries (rdma.ErrDeadline) after which a live node is suspected and a
	// node is declared dead. Suspicion needs a transport with an op deadline:
	// without one, gray nodes are indistinguishable from slow ones.
	suspectAfter = 2
	deadAfter    = 16
	// A live node whose write-latency EWMA exceeds stragglerFactor × the
	// fastest live node's and the absolute stragglerFloor is degraded; only
	// nodes with stragglerMinSamples observations are judged. The floor
	// doubles as the degraded-exit bar: degradeExitProbes consecutive probes
	// under it route a degraded node through a rebuild.
	stragglerFactor     = 16
	stragglerFloor      = 2 * time.Millisecond
	stragglerMinSamples = 8
	degradeExitProbes   = 3
	// probeLimit is how many consecutive failed probes a suspect or degraded
	// node gets before it is declared dead.
	probeLimit = 4
	// corruptSuspectAfter is the number of corrupt blocks detected on one
	// node since its last rebuild after which the node is suspected.
	corruptSuspectAfter = 8
	// redialBackoffMin and redialBackoffMax bound the jittered exponential
	// backoff between reconnection attempts to a failed node.
	redialBackoffMin = 10 * time.Millisecond
	redialBackoffMax = 2 * time.Second
)

// nodeHealth tracks one node's gray-failure signals.
type nodeHealth struct {
	ewma           metrics.EWMA // write latency, µs
	consecTimeouts atomic.Int32
	probeFails     atomic.Int32  // consecutive failed suspect/degraded probes
	fastProbes     atomic.Int32  // consecutive sub-floor probes while degraded
	corruptBlocks  atomic.Uint64 // corrupt blocks detected since last rebuild
}

// reset clears every signal: the node is freshly rebuilt or a new machine.
func (h *nodeHealth) reset() {
	h.consecTimeouts.Store(0)
	h.probeFails.Store(0)
	h.fastProbes.Store(0)
	h.corruptBlocks.Store(0)
	h.ewma.Reset()
}

// healthCounter names the Stats counter a move bumps.
type healthCounter uint8

const (
	noCounter      healthCounter = iota
	countFailures                // Stats.NodeFailures
	countSuspected               // Stats.NodeSuspected
	countDegraded                // Stats.NodeDegraded
	countRecovered               // Stats.NodeRecovered
	numHealthCounters
)

// publishMode is how a move publishes the membership bitmap.
type publishMode uint8

const (
	// publishDeferred: the move leaves the bitmap unchanged, or its caller
	// publishes once the surrounding operation completes.
	publishDeferred publishMode = iota
	// publishAsync: off the caller's goroutine, which may be on the op path.
	publishAsync
	// publishSync: before transition returns.
	publishSync
)

// move is one legal row of the health state machine.
type move struct {
	from, to int32
	counter  healthCounter
	event    string
	exclude  bool // stamps the exclusion clock (lastExclusion)
	drop     bool // drops the node's connection (recovery redials it)
	reset    bool // clears the node's health signals
	publish  publishMode
}

// healthTable is every legal move. Any (from, to) pair not listed — every
// self-move included — is refused. Every move out of the waited-on write set
// (into suspect, degraded or dead) stamps the exclusion clock, which starts
// the lease hold kv's AckHold reads. Every move into live clears the health
// signals, so a live node never carries probe streaks from an earlier
// episode.
var healthTable = [...]move{
	// {from, to, counter, event, exclude, drop, reset, publish}
	{nodeLive, nodeSuspect, countSuspected, "node.suspect", true, false, false, publishAsync},
	{nodeLive, nodeDegraded, countDegraded, "node.degraded", true, false, false, publishAsync},
	{nodeLive, nodeDead, countFailures, "node.dead", true, true, false, publishAsync},
	{nodeSuspect, nodeDead, countFailures, "node.dead", true, true, false, publishAsync},
	{nodeDegraded, nodeDead, countFailures, "node.dead", true, true, false, publishAsync},
	{nodeSyncing, nodeDead, countFailures, "node.dead", true, true, false, publishAsync},
	{nodeDead, nodeSyncing, noCounter, "node.syncing", false, false, false, publishDeferred},
	{nodeSyncing, nodeLive, countRecovered, "node.recovered", false, false, true, publishSync},
	{nodeSuspect, nodeLive, noCounter, "node.readmitted", false, false, true, publishDeferred},
	{nodeDegraded, nodeLive, noCounter, "node.readmitted", false, false, true, publishDeferred},
}

// healthMoves indexes healthTable by (from, to); nil means refused.
var healthMoves = func() (t [numNodeStates][numNodeStates]*move) {
	for k := range healthTable {
		mv := &healthTable[k]
		t[mv.from][mv.to] = mv
	}
	return t
}()

// transition moves node i to state to if the table admits the move from its
// current state, applying the row's side effects exactly once. reason is the
// event detail. It reports whether this call made the move.
func (m *Memory) transition(i int, to int32, reason string) bool {
	var mv *move
	for {
		from := m.state[i].Load()
		if mv = healthMoves[from][to]; mv == nil {
			return false
		}
		if m.state[i].CompareAndSwap(from, to) {
			break
		}
	}
	if mv.exclude {
		m.lastExclusion.Store(time.Now().UnixNano())
	}
	if mv.reset {
		m.health[i].reset()
	}
	if mv.counter != noCounter {
		m.stats.health[mv.counter].Add(1)
	}
	m.emit(mv.event, m.nodeName(i), reason)
	if mv.drop {
		m.dropConn(i)
	}
	switch mv.publish {
	case publishAsync:
		go m.publishMembership()
	case publishSync:
		m.publishMembership()
	}
	return true
}

// noteResult classifies the outcome of an operation against node i.
// Successes feed the latency EWMA and clear the timeout streak. conn is the
// connection the operation ran on; nil means the failure is not attributed
// to one — a failed dial, or a recovery or takeover step that had to succeed
// — and then any error other than a fence is fatal. With a connection:
//
//   - a completion from a connection that is no longer node i's current one
//     is dropped: its failure was accounted for when that connection was torn
//     down, and attributing it again would kill the fresh connection (or, for
//     ErrFenced raced by our own redial, fence the whole memory over a
//     takeover that never happened);
//   - ErrFenced is a takeover (stand down) unless the node's populated marker
//     shows it rebooted, which is an ordinary node failure;
//   - deadline expiries count a streak: suspect after suspectAfter, dead
//     after deadAfter;
//   - any other error means the transport failed: the node is dead.
func (m *Memory) noteResult(i int, conn rdma.Verbs, lat time.Duration, err error) {
	h := &m.health[i]
	if err == nil {
		h.ewma.Observe(float64(lat.Microseconds()))
		h.consecTimeouts.Store(0)
		return
	}
	to, reason := nodeDead, "error"
	switch {
	case errors.Is(err, ErrClosed):
		// This memory refused the op itself; the node is not at fault.
		return
	case conn == nil:
		if errors.Is(err, rdma.ErrFenced) {
			m.fence()
			return
		}
	case !m.isCurrentConn(i, conn):
		return
	case errors.Is(err, rdma.ErrFenced):
		if m.fencedByTakeover(conn) {
			m.fence()
			return
		}
		reason = "rebooted"
	case errors.Is(err, rdma.ErrDeadline):
		m.stats.nodeTimeouts.Add(1)
		n := h.consecTimeouts.Add(1)
		if n < suspectAfter {
			return
		}
		reason = "timeouts"
		if n < deadAfter {
			to = nodeSuspect
		}
	}
	if !m.transition(i, to, reason) && to == nodeDead {
		// Already dead: the failure came from the connection recovery just
		// redialed, which is dropped again.
		m.dropConn(i)
	}
}

// noteCorruption records n corrupt-block observations against node i: a
// node silently flipping bits is as untrustworthy as a hung one, so past
// corruptSuspectAfter it is suspected, and only a full rebuild (which also
// resets the count) clears the suspicion.
func (m *Memory) noteCorruption(i, n int) {
	if n <= 0 {
		return
	}
	m.stats.corruptions.Add(uint64(n))
	if m.health[i].corruptBlocks.Add(uint64(n)) >= corruptSuspectAfter {
		m.transition(i, nodeSuspect, "corruption")
	}
}

// isCurrentConn reports whether c is node i's current connection.
func (m *Memory) isCurrentConn(i int, c rdma.Verbs) bool {
	b := m.conns[i].Load()
	return b != nil && b.v == c
}

// fencedByTakeover distinguishes the two causes of an ErrFenced observed on
// node i's current connection. A newer coordinator acquiring the exclusive
// region leaves the node's state intact (populated marker set) and, in
// cluster use, has stamped a higher election term into the node's heartbeat
// word; the node itself rebooting or being reset clears the populated
// marker when it bumps the epoch (memnode.Reset). The admin region is
// shared (epoch 0), so it stays readable on the fenced connection. When the
// admin region cannot be read at all the call reports a takeover — the
// conservative, self-fencing answer.
func (m *Memory) fencedByTakeover(c rdma.Verbs) bool {
	var buf [8]byte
	if err := c.Read(memnode.AdminRegionID, memnode.AdminWordOffset, buf[:]); err == nil {
		w := binary.LittleEndian.Uint64(buf[:])
		if term := uint16(w >> 48); term > m.cfg.Term {
			return true
		}
	}
	populated, err := readPopulated(c)
	return err != nil || populated
}

// dropConn closes node i's connection, if any, so the next use redials.
func (m *Memory) dropConn(i int) {
	if old := m.swapConn(i, nil); old != nil {
		old.v.Close()
	}
}

// swapConn installs next as node i's connection and returns the previous
// one, folding its transport counters into the retired totals so Stats
// never goes backwards when a connection is replaced. The caller closes the
// returned connection.
func (m *Memory) swapConn(i int, next *connBox) *connBox {
	m.retired.mu.Lock()
	defer m.retired.mu.Unlock()
	old := m.conns[i].Swap(next)
	if old != nil {
		if ps, ok := old.v.(rdma.PipelineStatser); ok {
			p := ps.PipelineStats()
			m.retired.ops += p.Submitted
			m.retired.flushes += p.Flushes
			m.retired.maxInFlight = max(m.retired.maxInFlight, p.MaxInFlight)
		}
	}
	return old
}

// probe times a one-byte read of node i's replicated region.
func (m *Memory) probe(i int) (rdma.Verbs, time.Duration, error) {
	c, err := m.conn(i)
	start := time.Now()
	if err == nil {
		var b [1]byte
		err = c.Read(replRegion, 0, b[:])
	}
	return c, time.Since(start), err
}

// probeHealth is the recovery manager's per-tick health pass.
//
// Live nodes are probed so failures are detected even on an idle group (a
// read-from-cache workload may touch no memory node for a while); probe
// outcomes feed noteResult like any op. A suspect that answers is routed
// through the dead-node rebuild (it may have missed best-effort writes while
// gray). A degraded node is routed there only once degradeExitProbes
// consecutive probes land under the straggler floor. A suspect or degraded
// node that fails probeLimit consecutive probes is declared dead.
func (m *Memory) probeHealth() {
	for _, i := range m.nodesInState(nodeLive) {
		if c, _, err := m.probe(i); err != nil {
			m.noteResult(i, c, 0, err)
		}
	}
	for _, i := range m.nodesInState(nodeSuspect) {
		h := &m.health[i]
		if _, _, err := m.probe(i); err == nil {
			h.probeFails.Store(0)
			m.transition(i, nodeDead, "repair")
		} else if h.probeFails.Add(1) >= probeLimit {
			m.noteResult(i, nil, 0, err)
		}
	}
	for _, i := range m.nodesInState(nodeDegraded) {
		h := &m.health[i]
		_, lat, err := m.probe(i)
		if err != nil {
			h.fastProbes.Store(0)
			if h.probeFails.Add(1) >= probeLimit {
				m.noteResult(i, nil, 0, err)
			}
			continue
		}
		h.probeFails.Store(0)
		h.ewma.Observe(float64(lat.Microseconds()))
		if lat >= stragglerFloor {
			h.fastProbes.Store(0)
		} else if h.fastProbes.Add(1) >= degradeExitProbes {
			m.transition(i, nodeDead, "repair")
		}
	}
	m.checkStragglers()
}

// checkStragglers degrades live nodes whose smoothed write latency has
// drifted far above the fastest live node's, so a node that is slow but not
// hung (a gray straggler, Velos-style) stops delaying quorum writes.
//
// Degraded — not suspect: a suspect is repaired the moment it answers a
// probe, which a merely-slow node always does; the repair resets its EWMA,
// the straggler check re-fires once the EWMA refills, and the node loops
// through exclusion and rebuild forever. Sustained slowness (a replica
// across a WAN link) instead parks in the degraded state until its probe
// latency actually recovers.
func (m *Memory) checkStragglers() {
	if m.transferring.Load() {
		return // bulk state transfer in flight: EWMAs are not comparable
	}
	live := m.nodesInState(nodeLive)
	if len(live) < 2 {
		return
	}
	best := -1.0
	for _, i := range live {
		if m.health[i].ewma.Count() < stragglerMinSamples {
			continue
		}
		if v := m.health[i].ewma.Value(); best < 0 || v < best {
			best = v
		}
	}
	if best < 0 {
		return
	}
	floor := float64(stragglerFloor.Microseconds())
	for _, i := range live {
		if m.health[i].ewma.Count() < stragglerMinSamples {
			continue
		}
		if v := m.health[i].ewma.Value(); v > best*stragglerFactor && v > floor {
			m.transition(i, nodeDegraded, "straggler")
		}
	}
}

// NodeHealth is one memory node's gray-failure view, exported for the
// cluster health surface and the chaos tests.
type NodeHealth struct {
	Node           string
	State          string        // "live", "suspect", "degraded", "syncing", or "dead"
	EWMALatencyUs  float64       // smoothed write latency in microseconds
	ConsecTimeouts int           // current consecutive deadline-expiry streak
	RedialFailures int           // consecutive failed reconnection attempts
	RedialBackoff  time.Duration // time until the next redial attempt; 0 when the circuit is closed
	Corruptions    uint64        // corrupt blocks detected on this node since its last rebuild
}

// Health snapshots every node's liveness state, latency EWMA, timeout
// streak, and redial circuit-breaker state.
func (m *Memory) Health() []NodeHealth {
	out := make([]NodeHealth, len(m.nodes))
	for i := range m.nodes {
		failures, openFor := m.redialers[i].snapshot()
		out[i] = NodeHealth{
			Node:           m.nodeName(i),
			State:          stateName(m.state[i].Load()),
			EWMALatencyUs:  m.health[i].ewma.Value(),
			ConsecTimeouts: int(m.health[i].consecTimeouts.Load()),
			RedialFailures: failures,
			RedialBackoff:  openFor,
			Corruptions:    m.health[i].corruptBlocks.Load(),
		}
	}
	return out
}

func stateName(s int32) string {
	switch s {
	case nodeLive:
		return "live"
	case nodeDead:
		return "dead"
	case nodeSyncing:
		return "syncing"
	case nodeSuspect:
		return "suspect"
	case nodeDegraded:
		return "degraded"
	default:
		return "unknown"
	}
}
