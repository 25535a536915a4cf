package repmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"github.com/repro/sift/internal/rdma"
)

// Background scrubber: sweeps the materialized main memory (checksum
// verification against the coordinator's cache) and the direct-write zone
// (cross-replica agreement — its contents are self-validating WAL slots, so
// no strip is kept) at a configurable rate, repairing what it can. Latent
// corruption on a replica that reads happen not to touch would otherwise
// survive until that replica becomes the read source — or worse, the
// recovery source — so the scrubber bounds the time a flipped bit can hide.

// scrubBatch is how many blocks/ranges one scrub tick examines. Small
// enough that a tick's lock footprint never bothers the hot path.
const scrubBatch = 32

// scrubDirectChunk is the granularity of direct-zone agreement checks.
const scrubDirectChunk = 4096

// ScrubReport summarizes one full synchronous scrub sweep.
type ScrubReport struct {
	MainBlocks   int // main-memory blocks examined
	DirectRanges int // direct-zone ranges examined
	Corrupt      int // replica blocks that failed their CRC or diverged
	Repaired     int // replica blocks rewritten in place
	Unrepaired   int // damage found that could not be safely repaired
}

// add folds one per-unit repair outcome into the report.
func (r *ScrubReport) add(corrupt, repaired, unrepaired int) {
	r.Corrupt += corrupt
	r.Repaired += repaired
	r.Unrepaired += unrepaired
}

// scrubMainBlocks returns how many main-memory blocks the scrubber covers
// (zero with integrity off — without checksums a plain replica divergence
// has no arbiter on the main space, where blocks are not self-validating).
func (m *Memory) scrubMainBlocks() int {
	if m.integ == nil {
		return 0
	}
	return m.integ.blocks
}

// scrubDirectRanges returns how many direct-zone ranges the scrubber covers.
func (m *Memory) scrubDirectRanges() int {
	return (m.cfg.DirectSize + scrubDirectChunk - 1) / scrubDirectChunk
}

// StartScrub launches the background scrubber: every tick it verifies the
// next scrubBatch blocks, wrapping around indefinitely. The returned
// function stops it and returns once the scrubber has exited. Pass progress
// and findings surface through Stats.
func (m *Memory) StartScrub(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var r ScrubReport // the background cadence reports through Stats
		cursor := 0
		passStart := time.Now()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if m.closed.Load() {
					return
				}
				cursor = m.scrubStep(cursor, scrubBatch, &r)
				if cursor == 0 {
					m.stats.scrubPasses.Add(1)
					m.scrubPassTime.Observe(float64(time.Since(passStart).Microseconds()))
					passStart = time.Now()
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// ScrubOnce runs one full synchronous sweep over the main memory and the
// direct zone, scrubBatch units at a time like the background cadence. It
// is the hook tests and operators use to force a complete pass without
// waiting for the background ticks.
func (m *Memory) ScrubOnce() (ScrubReport, error) {
	var r ScrubReport
	if err := m.checkOpen(); err != nil {
		return r, err
	}
	start := time.Now()
	for cursor := m.scrubStep(0, scrubBatch, &r); cursor != 0; {
		cursor = m.scrubStep(cursor, scrubBatch, &r)
	}
	m.stats.scrubPasses.Add(1)
	m.scrubPassTime.Observe(float64(time.Since(start).Microseconds()))
	return r, m.checkOpen()
}

// scrubStep examines n units — main blocks, then direct ranges — starting
// at the sweep cursor, one span per run of consecutive units of a kind, and
// returns the new cursor (zero after completing a pass). Findings are
// added to r.
func (m *Memory) scrubStep(cursor, n int, r *ScrubReport) int {
	mainBlocks := m.scrubMainBlocks()
	total := mainBlocks + m.scrubDirectRanges()
	if total == 0 {
		return 0
	}
	if cursor >= total {
		cursor = 0
	}
	for n > 0 && cursor < total {
		if m.closed.Load() {
			return 0
		}
		var run int
		if cursor < mainBlocks {
			run = min(n, mainBlocks-cursor)
			m.scrubMainRun(uint64(cursor), run, r)
		} else {
			run = min(n, total-cursor)
			m.scrubDirectRun(cursor-mainBlocks, run, r)
		}
		cursor += run
		n -= run
	}
	if cursor >= total {
		return 0
	}
	return cursor
}

// readAll issues ops all at once, per consecutive ones to each node in
// nodes: pipelined on connections that accept submission, one goroutine per
// op otherwise. It returns when every op has completed, each outcome in its
// Err; a node whose connection cannot be had fails all its ops.
func (m *Memory) readAll(nodes []int, ops []rdma.Op, per int) {
	var wg sync.WaitGroup
	done := func(*rdma.Op) { wg.Done() }
	for k, i := range nodes {
		c, err := m.conn(i)
		sub, pipelined := c.(rdma.Submitter)
		for j := k * per; j < (k+1)*per; j++ {
			op := &ops[j]
			switch {
			case err != nil:
				op.Err = err
			case pipelined:
				wg.Add(1)
				op.Done = done
				sub.Submit(op)
			default:
				wg.Add(1)
				go func() {
					defer wg.Done()
					op.Err = c.Read(op.Region, op.Offset, op.Data)
				}()
			}
		}
	}
	wg.Wait()
}

// scrubMainRun checks main blocks [b0, b0+count) on every live replica with
// one READ of the run's bytes and one of its strip entries per node, all in
// flight together under a single read-lock hold. Each block is held to
// scrubMainBlock's checks — its CRC against the checksum cache, and the
// stored strip entry against the cache. A block that fails a check on any
// replica, or that a replica could not return, goes through scrubMainBlock,
// which re-reads it under the block's own locks, counts, and repairs.
func (m *Memory) scrubMainRun(b0 uint64, count int, r *ScrubReport) {
	g := m.integ
	last := b0 + uint64(count) - 1
	addr, _ := g.blockRange(b0)
	lastAddr, lastLen := g.blockRange(last)
	span := int(lastAddr-addr) + lastLen
	dataLen := int(g.physOff(last)-g.physOff(b0)) + g.physLen(last)

	live := m.nodesInState(nodeLive)
	ops := make([]rdma.Op, 0, 2*len(live))
	for range live {
		ops = append(ops,
			rdma.Op{Kind: rdma.OpRead, Region: replRegion, Offset: g.physOff(b0), Data: make([]byte, dataLen)},
			rdma.Op{Kind: rdma.OpRead, Region: replRegion, Offset: g.stripOff(b0), Data: make([]byte, 4*count)})
	}
	suspect := make([]bool, count)
	m.locks.rlockSpan(addr, span)
	m.readAll(live, ops, 2)
	for k, i := range live {
		data, strip := &ops[2*k], &ops[2*k+1]
		for j := range suspect {
			b := b0 + uint64(j)
			off := uint64(j) * g.physIBS
			sum := g.sum(i, b)
			suspect[j] = suspect[j] || data.Err != nil || strip.Err != nil ||
				crcBlock(data.Data[off:off+uint64(g.physLen(b))]) != sum ||
				binary.LittleEndian.Uint32(strip.Data[4*j:]) != sum
		}
	}
	m.locks.runlockSpan(addr, span)

	for j, bad := range suspect {
		if m.checkOpen() != nil {
			return
		}
		r.MainBlocks++
		if bad {
			r.add(m.scrubMainBlock(b0 + uint64(j)))
		} else {
			m.stats.scrubbed.Add(1)
		}
	}
}

// scrubDirectRun checks direct-zone ranges [idx0, idx0+count) with one READ
// of the whole run per live node, all in flight together under a single
// read-lock hold. A range whose copies a replica could not return or that
// differ across replicas goes through scrubDirectRange, which re-reads,
// counts, and re-converges it.
func (m *Memory) scrubDirectRun(idx0, count int, r *ScrubReport) {
	off := uint64(idx0) * scrubDirectChunk
	n := min64(uint64(count)*scrubDirectChunk, uint64(m.cfg.DirectSize)-off)

	live := m.nodesInState(nodeLive)
	ops := make([]rdma.Op, len(live))
	for k := range ops {
		ops[k] = rdma.Op{Kind: rdma.OpRead, Region: replRegion, Offset: m.physDirect(off), Data: make([]byte, n)}
	}
	m.directLocks.rlockSpan(off, int(n))
	m.readAll(live, ops, 1)
	m.directLocks.runlockSpan(off, int(n))

	for j := 0; j < count; j++ {
		if m.checkOpen() != nil {
			return
		}
		r.DirectRanges++
		lo := uint64(j) * scrubDirectChunk
		hi := min64(lo+scrubDirectChunk, n)
		if copiesAgree(ops, lo, hi) {
			m.stats.scrubbed.Add(1)
		} else {
			r.add(m.scrubDirectRange(idx0 + j))
		}
	}
}

// copiesAgree reports whether every op read [lo, hi) of its buffer without
// error and all those bytes are identical.
func copiesAgree(ops []rdma.Op, lo, hi uint64) bool {
	for k := range ops {
		if ops[k].Err != nil || !bytes.Equal(ops[k].Data[lo:hi], ops[0].Data[lo:hi]) {
			return false
		}
	}
	return true
}

// scrubMainBlock verifies block b on every live replica against the
// checksum cache and repairs deviants in place.
func (m *Memory) scrubMainBlock(b uint64) (corrupt, repaired, unrepaired int) {
	g := m.integ
	m.stats.scrubbed.Add(1)
	defer func() {
		if repaired > 0 {
			m.emit("scrub.repair", "", fmt.Sprintf("main block %d: repaired %d replica(s)", b, repaired))
		}
	}()
	start, length := g.blockRange(b)
	unlock := m.locks.rlockRange(start, length)
	var bad int
	var stripFix []int
	for _, i := range m.nodesInState(nodeLive) {
		c, err := m.conn(i)
		if err == nil {
			data := make([]byte, g.physLen(b))
			if err = c.Read(replRegion, g.physOff(b), data); err == nil {
				if crcBlock(data) != g.sum(i, b) {
					m.noteCorruption(i, 1)
					bad++
					continue
				}
				// Data is good; the stored strip entry must agree (a corrupted
				// strip write leaves clean data under a lying checksum, which
				// would poison the next recovery's loadSums vote).
				strip := make([]byte, 4)
				if err = c.Read(replRegion, g.stripOff(b), strip); err == nil {
					if !bytes.Equal(strip, stripEntry(g.sum(i, b))) {
						stripFix = append(stripFix, i)
					}
					continue
				}
			}
		}
		m.noteResult(i, c, 0, err)
		if m.checkOpen() != nil {
			break
		}
	}
	unlock()
	for _, i := range stripFix {
		unlockW := m.locks.lockRange(start, length)
		c, err := m.conn(i)
		if err == nil {
			err = c.Write(replRegion, g.stripOff(b), stripEntry(g.sum(i, b)))
		}
		unlockW()
		corrupt++
		m.noteCorruption(i, 1)
		if err != nil {
			m.noteResult(i, c, 0, err)
			unrepaired++
			continue
		}
		m.stats.repairs.Add(1)
		repaired++
	}
	if bad == 0 {
		return corrupt, repaired, unrepaired
	}
	unlockW := m.locks.lockRange(start, length)
	var fixed int
	var err error
	if m.code == nil {
		_, fixed, err = g.repairPlainBlockLocked(b)
	} else {
		fixed, err = g.repairECBlockLocked(b)
	}
	unlockW()
	corrupt += bad
	repaired += fixed
	if err != nil {
		unrepaired += bad - fixed
	}
	return corrupt, repaired, unrepaired
}

// scrubDirectRange checks cross-replica agreement on the idx-th direct-zone
// range. The direct zone has no checksum strip — its contents are the KV
// store's self-validating WAL slots, quorum-merged at recovery — so the
// scrubber's job is only to re-converge replicas: a diverging minority is
// overwritten when a strict majority of the full membership is
// byte-identical (every live node receives every direct write, so the
// honest copies agree); anything less is left alone and counted.
func (m *Memory) scrubDirectRange(idx int) (corrupt, repaired, unrepaired int) {
	m.stats.scrubbed.Add(1)
	defer func() {
		if repaired > 0 {
			m.emit("scrub.repair", "", fmt.Sprintf("direct range %d: repaired %d replica(s)", idx, repaired))
		}
	}()
	off := uint64(idx) * scrubDirectChunk
	n := min64(scrubDirectChunk, uint64(m.cfg.DirectSize)-off)
	if n == 0 {
		return 0, 0, 0
	}

	read := func() [][]byte {
		copies := make([][]byte, len(m.nodes))
		for _, i := range m.nodesInState(nodeLive) {
			c, err := m.conn(i)
			if err == nil {
				buf := make([]byte, n)
				if err = c.Read(replRegion, m.physDirect(off), buf); err == nil {
					copies[i] = buf
					continue
				}
			}
			m.noteResult(i, c, 0, err)
			if m.checkOpen() != nil {
				break
			}
		}
		return copies
	}
	agree := func(copies [][]byte) bool {
		var first []byte
		for _, c := range copies {
			if c == nil {
				continue
			}
			if first == nil {
				first = c
			} else if !bytes.Equal(first, c) {
				return false
			}
		}
		return true
	}

	unlock := m.directLocks.rlockRange(off, int(n))
	copies := read()
	unlock()
	if agree(copies) {
		return 0, 0, 0
	}

	// Divergence seen: re-read under the write lock (the first pass may have
	// raced an in-flight DirectWrite fan-out) and repair.
	unlockW := m.directLocks.lockRange(off, int(n))
	defer unlockW()
	copies = read()
	if agree(copies) {
		return 0, 0, 0
	}
	var canonical []byte
	best := 0
	for _, c := range copies {
		if c == nil {
			continue
		}
		votes := 0
		for _, other := range copies {
			if other != nil && bytes.Equal(c, other) {
				votes++
			}
		}
		if votes > best {
			best, canonical = votes, c
		}
	}
	for i, c := range copies {
		if c == nil || bytes.Equal(c, canonical) {
			continue
		}
		corrupt++
		m.noteCorruption(i, 1)
		if 2*best <= len(m.nodes) {
			unrepaired++
			continue
		}
		conn, err := m.conn(i)
		if err == nil {
			err = conn.Write(replRegion, m.physDirect(off), canonical)
		}
		if err != nil {
			m.noteResult(i, conn, 0, err)
			unrepaired++
			continue
		}
		m.stats.repairs.Add(1)
		repaired++
	}
	return corrupt, repaired, unrepaired
}
