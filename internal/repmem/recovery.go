package repmem

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/wal"
)

// Recover performs coordinator-takeover log recovery (paper §3.4.1): it
// reads the circular WAL from every reachable memory node, reconciles them
// into one consistent, up-to-date log, patches nodes whose log differs from
// the merged view, replays the merged log against the materialized memory,
// and finally positions the log cursor after the newest entry. It must be
// called exactly once, before the first Read/Write.
func (m *Memory) Recover() error {
	if err := m.checkOpen(); err != nil {
		return err
	}
	if m.recoveredOnce.Swap(true) {
		return fmt.Errorf("repmem: Recover called twice")
	}

	// Read each reachable node's WAL area.
	areas := make([][]byte, len(m.nodes))
	reachable := 0
	for i := range m.nodes {
		if m.state[i].Load() != nodeLive {
			continue
		}
		c, err := m.conn(i)
		if err == nil {
			area := make([]byte, m.layout.WALBytes())
			if err = c.Read(replRegion, 0, area); err == nil {
				areas[i] = area
				reachable++
				continue
			}
		}
		m.noteResult(i, nil, 0, err)
		if e := m.checkOpen(); e != nil {
			return e
		}
	}
	if reachable < m.Majority() {
		return fmt.Errorf("%w: read WAL from %d of %d nodes", ErrNoQuorum, reachable, len(m.nodes))
	}

	entries := wal.Reconcile(m.geo, areas)

	// Make every reachable node's log identical to the merged view: write
	// merged entries into their slots and clear slots the merged view does
	// not occupy. Clearing matters: a lingering uncommitted entry could
	// otherwise collide with a future entry that reuses its index.
	desired := make([][]byte, m.geo.Slots)
	for _, e := range entries {
		slot := make([]byte, m.geo.SlotSize)
		if _, err := e.Encode(slot); err != nil {
			return fmt.Errorf("repmem: recovery re-encode: %w", err)
		}
		desired[int(e.Index%uint64(m.geo.Slots))] = slot
	}
	zeros := make([]byte, m.geo.SlotSize)
	for i := range m.nodes {
		if areas[i] == nil {
			continue
		}
		c, err := m.conn(i)
		if err != nil {
			m.noteResult(i, nil, 0, err)
			continue
		}
		for s := 0; s < m.geo.Slots; s++ {
			want := desired[s]
			if want == nil {
				want = zeros
			}
			have := areas[i][s*m.geo.SlotSize : (s+1)*m.geo.SlotSize]
			if bytes.Equal(have, want) {
				continue
			}
			if err := c.Write(replRegion, uint64(s*m.geo.SlotSize), want); err != nil {
				m.noteResult(i, nil, 0, err)
				break
			}
		}
		if e := m.checkOpen(); e != nil {
			return e
		}
	}

	// Load the checksum cache from the nodes' strips before any verified
	// read or replay RMW consults it.
	if m.integ != nil {
		if err := m.integ.loadSums(); err != nil {
			return err
		}
	}

	// Replay the merged log in index order. Replaying already-applied
	// entries is safe: every entry that might overwrite them is itself in
	// the window and is replayed afterwards, in order.
	for _, e := range entries {
		m.applyEntry(e)
	}

	m.seqMu.Lock()
	var maxIdx uint64
	if len(entries) > 0 {
		maxIdx = entries[len(entries)-1].Index
	}
	if maxIdx+1 > m.nextIndex {
		m.nextIndex = maxIdx + 1
	}
	m.watermark = m.nextIndex - 1
	m.seqMu.Unlock()
	return nil
}

// recoveryBatch is how many bytes are copied per locked step when
// reintegrating a memory node. Smaller batches degrade write throughput
// more gently; larger ones finish recovery faster (paper §6.5 discusses
// this trade-off).
const recoveryBatch = 64 << 10

// StartRecovery launches the background recovery manager: a goroutine that
// periodically polls failed memory nodes and reintegrates any that have
// come back (paper §3.4.2). The returned function stops the manager and
// returns once it has exited.
func (m *Memory) StartRecovery(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if m.closed.Load() {
					return
				}
				m.probeHealth()
				for _, i := range m.nodesInState(nodeDead) {
					m.recoverNode(i)
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// RecoverNodeNow synchronously attempts to reintegrate the named memory
// node. It is the hook tests and the failure-recovery benchmarks use to
// avoid waiting for the background manager's poll tick. A suspect or
// degraded node is demoted to dead first so it goes through the full
// rebuild.
func (m *Memory) RecoverNodeNow(node string) error {
	for i := range m.nodes {
		if m.nodeName(i) == node {
			switch m.state[i].Load() {
			case nodeSuspect, nodeDegraded:
				m.transition(i, nodeDead, "repair")
			case nodeLive:
				// An apparently healthy node may have rebooted without the
				// failure evidence having surfaced yet: an op parked on the
				// old connection only completes with ErrFenced once the
				// node's post-reboot epoch bump is observed. The populated
				// marker disambiguates synchronously — the admin region is
				// shared, so even a stale connection can read it, and a
				// rebooted node reads empty.
				if c, err := m.conn(i); err == nil {
					if populated, err := readPopulated(c); err != nil {
						m.noteResult(i, c, 0, err)
					} else if !populated {
						m.transition(i, nodeDead, "rebooted")
					}
				}
			}
			if m.state[i].Load() != nodeDead {
				return nil
			}
			return m.recoverNode(i)
		}
	}
	return fmt.Errorf("repmem: unknown memory node %q", node)
}

// recoverNode reintegrates dead node i: reconnect, clear its WAL (its slots
// may hold entries from before the failure that would corrupt a future
// reconciliation), switch it to write-only (syncing) so it receives all new
// updates, then incrementally copy the direct zone and materialized memory
// under read locks — blocking conflicting updates but never blocking reads
// (paper §3.4.2) — and finally mark it readable.
func (m *Memory) recoverNode(i int) error {
	// Serialize with structural reconfiguration: a replacement swapping this
	// very slot's identity mid-copy would leave the copy writing to a
	// connection that no longer belongs to the group.
	m.reconfigMu.Lock()
	defer m.reconfigMu.Unlock()
	if err := m.checkOpen(); err != nil {
		return err
	}
	if m.state[i].Load() != nodeDead {
		// A reconfiguration that ran while we waited may have rebuilt (or
		// replaced) the node already.
		return nil
	}
	// Reconnect. The old connection (if any) was dropped on failure. A
	// recovery attempt is deliberate, so it bypasses the redial circuit
	// breaker rather than waiting out a backoff opened by the hot path.
	m.redialers[i].reset()
	c, err := m.conn(i)
	if err != nil {
		return err
	}
	// Probe reachability cheaply before committing to a full copy.
	var probe [1]byte
	if err := c.Read(replRegion, 0, probe[:]); err != nil {
		m.noteResult(i, nil, 0, err)
		return err
	}

	return m.rebuildSlot(i, c)
}

// rebuildSlot brings slot i — whose connection c points at a blank or stale
// machine — from dead to live member: mark unpopulated, clear the WAL,
// switch the slot to write-only (syncing) so it receives all new updates,
// copy the direct zone and materialized memory under read locks, then mark
// it populated and readable. Shared by ordinary dead-node recovery and by
// node replacement, which swaps the slot's identity to a fresh machine
// first and then rebuilds it through this same pipeline.
func (m *Memory) rebuildSlot(i int, c rdma.Verbs) error {
	// Mark the node unpopulated for the duration of the copy: if this
	// coordinator dies mid-recovery, its successor must rebuild the node
	// rather than read its half-copied memory.
	if err := writePopulated(c, memnode.MarkerEmpty); err != nil {
		m.noteResult(i, nil, 0, err)
		return err
	}

	// Clear the WAL area while the node is still excluded from appends.
	if err := m.zeroWAL(c); err != nil {
		m.noteResult(i, nil, 0, err)
		return err
	}

	// From here on the node receives every new append, apply, and direct
	// write; reads still avoid it until the copy completes.
	if !m.transition(i, nodeSyncing, "rebuild") {
		return fmt.Errorf("repmem: rebuild of %s: node not dead", m.nodeName(i))
	}

	if err := m.copyDirectZone(i, c); err != nil {
		m.noteResult(i, nil, 0, err)
		return err
	}
	if err := m.copyMainMemory(i, c); err != nil {
		m.noteResult(i, nil, 0, err)
		return err
	}
	if err := writePopulated(c, memnode.MarkerPopulated); err != nil {
		m.noteResult(i, nil, 0, err)
		return err
	}
	// A failure observed mid-copy already moved the node back to dead; it
	// may have missed writes since, so it is not readmitted.
	if !m.transition(i, nodeLive, "rebuilt") {
		return fmt.Errorf("repmem: rebuild of %s: node failed during the copy", m.nodeName(i))
	}
	return nil
}

// copyDirectZone copies the direct zone to node i in read-locked batches.
// The lock is held across both the source read and the target write so a
// concurrent DirectWrite cannot slip between them and be overwritten by
// stale data.
func (m *Memory) copyDirectZone(i int, c rdma.Verbs) error {
	size := uint64(m.cfg.DirectSize)
	buf := make([]byte, recoveryBatch)
	for off := uint64(0); off < size; off += uint64(len(buf)) {
		n := uint64(len(buf))
		if rem := size - off; rem < n {
			n = rem
		}
		chunk := buf[:n]
		unlock := m.directLocks.rlockRange(off, int(n))
		err := m.readDirectFromLive(off, chunk)
		if err == nil {
			err = c.Write(replRegion, m.physDirect(off), chunk)
		}
		unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// readDirectFromLive reads a direct-zone range from any live node without
// taking locks (the caller holds them).
func (m *Memory) readDirectFromLive(addr uint64, buf []byte) error {
	for _, j := range m.nodesInState(nodeLive) {
		cj, err := m.conn(j)
		if err == nil {
			if err = cj.Read(replRegion, m.physDirect(addr), buf); err == nil {
				return nil
			}
		}
		m.noteResult(j, nil, 0, err)
		if e := m.checkOpen(); e != nil {
			return e
		}
	}
	return fmt.Errorf("%w: no live source for direct copy", ErrNoQuorum)
}

// copyMainMemory copies the materialized memory to node i in read-locked
// batches. Under erasure coding each block is reconstructed from the
// surviving chunks and re-encoded to regenerate exactly the chunk node i is
// responsible for (§5.1: "the coordinator rebuilds each block and encodes
// it to generate the missing chunks").
func (m *Memory) copyMainMemory(i int, c rdma.Verbs) error {
	if m.code != nil {
		B := uint64(m.cfg.ECBlockSize)
		blocks := uint64(m.cfg.MemSize) / B
		k := m.code.K()
		for b := uint64(0); b < blocks; b++ {
			unlock := m.locks.rlockRange(b*B, int(B))
			// readBlockEC skips checksum-failing chunks like dead nodes, so
			// corruption on a source node is never copied to the target.
			block, _, err := m.readBlockEC(b)
			var chunk []byte
			if err == nil {
				if i < k {
					chunk = block[i*m.chunk : (i+1)*m.chunk]
				} else {
					var chunks [][]byte
					chunks, err = m.code.Encode(block)
					if err == nil {
						chunk = chunks[i]
					}
				}
				if err == nil {
					err = c.Write(replRegion, m.layout.MainBase()+b*uint64(m.chunk), chunk)
				}
				if err == nil && m.integ != nil {
					sum := crcBlock(chunk)
					m.integ.setSum(i, b, sum)
					err = c.Write(replRegion, m.integ.stripOff(b), stripEntry(sum))
				}
			}
			unlock()
			if err != nil {
				return err
			}
		}
		return nil
	}

	if m.integ != nil {
		return m.copyMainVerified(i, c)
	}

	size := uint64(m.cfg.MemSize)
	buf := make([]byte, recoveryBatch)
	for off := uint64(0); off < size; off += uint64(len(buf)) {
		n := uint64(len(buf))
		if rem := size - off; rem < n {
			n = rem
		}
		chunk := buf[:n]
		unlock := m.locks.rlockRange(off, int(n))
		err := m.readMainFromLive(off, chunk)
		if err == nil {
			err = c.Write(replRegion, m.physMain(off), chunk)
		}
		unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// copyMainVerified copies the plain-replicated main memory block by block,
// verifying each source block against the checksum cache — an unverified
// copy would bless a corrupt source byte-for-byte onto the rebuilt node,
// strip entry and all. A block with no verified source replica is repaired
// (under write locks) and the copy retried.
func (m *Memory) copyMainVerified(i int, c rdma.Verbs) error {
	g := m.integ
	for b := uint64(0); b < uint64(g.blocks); b++ {
		var err error
		for attempt := 0; attempt < 2; attempt++ {
			start, length := g.blockRange(b)
			unlock := m.locks.rlockRange(start, length)
			var blk []byte
			blk, err = g.readPlainBlockNoRepair(b)
			if err == nil {
				if err = c.Write(replRegion, g.physOff(b), blk); err == nil {
					err = c.Write(replRegion, g.stripOff(b), stripEntry(g.sum(0, b)))
				}
			}
			unlock()
			if err == nil || !errors.Is(err, ErrCorrupt) {
				break
			}
			if rerr := g.repairBlocks([]uint64{b}); rerr != nil {
				return rerr
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readMainFromLive reads a main range from any live node without locks.
func (m *Memory) readMainFromLive(addr uint64, buf []byte) error {
	for _, j := range m.nodesInState(nodeLive) {
		cj, err := m.conn(j)
		if err == nil {
			if err = cj.Read(replRegion, m.physMain(addr), buf); err == nil {
				return nil
			}
		}
		m.noteResult(j, nil, 0, err)
		if e := m.checkOpen(); e != nil {
			return e
		}
	}
	return fmt.Errorf("%w: no live source for memory copy", ErrNoQuorum)
}

// LiveMemoryNodes returns the names of nodes currently serving reads.
func (m *Memory) LiveMemoryNodes() []string { return m.namesInState(nodeLive) }

// DeadMemoryNodes returns the names of nodes currently considered failed.
func (m *Memory) DeadMemoryNodes() []string { return m.namesInState(nodeDead) }

// SuspectMemoryNodes returns the names of nodes currently suspected gray:
// excluded from quorum waits but still receiving writes best-effort.
func (m *Memory) SuspectMemoryNodes() []string { return m.namesInState(nodeSuspect) }

// DegradedMemoryNodes returns the names of nodes classified as persistently
// slow: served around like suspects, but held out of the repair cycle until
// their probe latency recovers.
func (m *Memory) DegradedMemoryNodes() []string { return m.namesInState(nodeDegraded) }

// namesInState returns the names of the nodes in state s.
func (m *Memory) namesInState(s int32) []string {
	var out []string
	for _, i := range m.nodesInState(s) {
		out = append(out, m.nodeName(i))
	}
	return out
}
