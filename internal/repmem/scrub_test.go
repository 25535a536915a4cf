package repmem

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/sift/internal/faultrdma"
	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
	"github.com/repro/sift/internal/wal"
)

// countingConn counts the READs issued on one connection, blocking or
// submitted.
type countingConn struct {
	rdma.Submitter
	reads *atomic.Int64
}

func (c countingConn) Read(region rdma.RegionID, offset uint64, buf []byte) error {
	c.reads.Add(1)
	return c.Submitter.Read(region, offset, buf)
}

func (c countingConn) Submit(op *rdma.Op) {
	if op.Kind == rdma.OpRead {
		c.reads.Add(1)
	}
	c.Submitter.Submit(op)
}

// countReads makes cfg dial through countingConn and returns the per-node
// READ counters, indexed like e.names.
func countReads(e *testEnv, cfg *Config) []*atomic.Int64 {
	reads := make([]*atomic.Int64, len(e.names))
	byName := make(map[string]*atomic.Int64)
	for i, n := range e.names {
		reads[i] = new(atomic.Int64)
		byName[n] = reads[i]
	}
	dial := cfg.Dial
	cfg.Dial = func(node string) (rdma.Verbs, error) {
		v, err := dial(node)
		if err != nil {
			return nil, err
		}
		return countingConn{Submitter: v.(rdma.Submitter), reads: byName[node]}, nil
	}
	return reads
}

// readsDuring returns how many READs each node served while f ran.
func readsDuring(reads []*atomic.Int64, f func()) []int64 {
	before := make([]int64, len(reads))
	for i, r := range reads {
		before[i] = r.Load()
	}
	f()
	for i, r := range reads {
		before[i] = r.Load() - before[i]
	}
	return before
}

func TestScrubSpanReadsPerNode(t *testing.T) {
	plain := func(t *testing.T) (*testEnv, Config) {
		cfg := Config{MemSize: 32 * 4096, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}
		e := newEnv(t, 3, cfg.Layout())
		base := baseConfig(e, "c")
		base.MemSize = cfg.MemSize
		return e, base
	}
	ec := func(t *testing.T) (*testEnv, Config) { return newECEnv(t, 1) }
	for name, env := range map[string]func(*testing.T) (*testEnv, Config){"plain": plain, "ec": ec} {
		t.Run(name, func(t *testing.T) {
			e, cfg := env(t)
			reads := countReads(e, &cfg)
			m := newMemory(t, cfg)
			if got := m.scrubMainBlocks(); got != scrubBatch {
				t.Fatalf("%d main blocks, want one tick's worth (%d)", got, scrubBatch)
			}
			var r ScrubReport
			cursor := 0
			for node, n := range readsDuring(reads, func() { cursor = m.scrubStep(0, scrubBatch, &r) }) {
				if n != 2 {
					t.Errorf("main tick: node %d served %d READs, want 2 (data span + strip span)", node, n)
				}
			}
			if cursor != scrubBatch {
				t.Fatalf("cursor after the main tick = %d, want %d", cursor, scrubBatch)
			}
			for node, n := range readsDuring(reads, func() { cursor = m.scrubStep(cursor, scrubBatch, &r) }) {
				if n != 1 {
					t.Errorf("direct tick: node %d served %d READs, want 1", node, n)
				}
			}
			if cursor != 0 {
				t.Fatalf("cursor after the direct tick = %d, want 0 (pass complete)", cursor)
			}
			if r.Corrupt != 0 || r.MainBlocks != scrubBatch || r.DirectRanges != m.scrubDirectRanges() {
				t.Fatalf("clean pass report %+v", r)
			}
		})
	}
}

// TestScrubSpanCountersAndCadence checks that the span walker advances
// Stats.Scrubbed by one per unit examined and ScrubPasses by one per pass,
// and that a pass takes ceil(units/scrubBatch) ticks — the per-block
// walker's cadence — also when a tick straddles main and direct units.
func TestScrubSpanCountersAndCadence(t *testing.T) {
	cfg0 := Config{MemSize: 40 * 4096, DirectSize: 24 << 10, WALSlots: 64, WALSlotSize: 512}
	e := newEnv(t, 3, cfg0.Layout())
	cfg := baseConfig(e, "c")
	cfg.MemSize, cfg.DirectSize = cfg0.MemSize, cfg0.DirectSize
	m := newMemory(t, cfg)
	units := m.scrubMainBlocks() + m.scrubDirectRanges()
	if units != 46 {
		t.Fatalf("%d units, want 46", units)
	}

	before := m.Stats()
	ticks, cursor := 0, 0
	var r ScrubReport
	for {
		cursor = m.scrubStep(cursor, scrubBatch, &r)
		ticks++
		if cursor == 0 {
			break
		}
		if got := m.Stats().ScrubbedBlocks - before.ScrubbedBlocks; got != uint64(ticks*scrubBatch) {
			t.Fatalf("after tick %d: scrubbed %d units, want %d", ticks, got, ticks*scrubBatch)
		}
	}
	if want := (units + scrubBatch - 1) / scrubBatch; ticks != want {
		t.Fatalf("pass took %d ticks, want %d", ticks, want)
	}
	if got := m.Stats().ScrubbedBlocks - before.ScrubbedBlocks; got != uint64(units) {
		t.Fatalf("pass scrubbed %d units, want %d", got, units)
	}

	rep, err := m.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if rep.MainBlocks != m.scrubMainBlocks() || rep.DirectRanges != m.scrubDirectRanges() {
		t.Fatalf("ScrubOnce report %+v", rep)
	}
	if got := st.ScrubbedBlocks - before.ScrubbedBlocks; got != 2*uint64(units) {
		t.Fatalf("two passes scrubbed %d units, want %d", got, 2*units)
	}
	if got := st.ScrubPasses - before.ScrubPasses; got != 1 {
		t.Fatalf("ScrubOnce counted %d passes, want 1", got)
	}

	// The background cadence counts passes too.
	stop := m.StartScrub(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().ScrubPasses < st.ScrubPasses+2 {
		if time.Now().After(deadline) {
			stop()
			t.Fatal("background scrubber completed no pass")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
}

// TestScrubSpanFindsDamageMidRun injects one kind of damage into a unit in
// the middle of a run and checks that a pass counts it once, repairs it
// byte-for-byte, and that the next pass finds nothing.
func TestScrubSpanFindsDamageMidRun(t *testing.T) {
	const mid = 15 // a unit well inside a 32-unit run
	cases := []struct {
		name string
		ec   bool
		// memSize overrides the plain main space (0: 32 full blocks).
		memSize int
		damage  func(m *Memory, l memnode.Layout) uint64
	}{
		{name: "data flip", damage: func(m *Memory, l memnode.Layout) uint64 {
			return l.MainBase() + mid*4096 + 77
		}},
		{name: "lying strip entry", damage: func(m *Memory, l memnode.Layout) uint64 {
			return l.IntegrityOffset(mid) + 2
		}},
		{name: "corrupt EC chunk", ec: true, damage: func(m *Memory, l memnode.Layout) uint64 {
			return l.MainBase() + mid*uint64(m.chunk) + 5
		}},
		{name: "diverging direct chunk", damage: func(m *Memory, l memnode.Layout) uint64 {
			return l.DirectBase() + 2*scrubDirectChunk + 900
		}},
		// Ten full blocks and a 1000-byte one: the short block sits between
		// the main blocks and the direct ranges of the same tick.
		{name: "short final block", memSize: 10*4096 + 1000, damage: func(m *Memory, l memnode.Layout) uint64 {
			return l.MainBase() + 10*4096 + 999
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e *testEnv
			var cfg Config
			if tc.ec {
				e, cfg = newECEnv(t, 1)
			} else {
				c0 := Config{MemSize: 32 * 4096, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}
				if tc.memSize != 0 {
					c0.MemSize = tc.memSize
				}
				e = newEnv(t, 3, c0.Layout())
				cfg = baseConfig(e, "c")
				cfg.MemSize = c0.MemSize
			}
			m := newMemory(t, cfg)
			layout := m.cfg.Layout()

			rng := rand.New(rand.NewSource(13))
			data := make([]byte, m.cfg.MemSize)
			rng.Read(data)
			if err := m.UnloggedWrite(0, data); err != nil {
				t.Fatal(err)
			}
			direct := make([]byte, m.cfg.DirectSize)
			rng.Read(direct)
			if err := m.DirectWrite(0, direct); err != nil {
				t.Fatal(err)
			}
			if tc.ec {
				awaitDirectConverged(t, e, layout) // EC main chunks differ by node
			} else {
				e.awaitConverged(t, layout)
			}

			const victim = 1
			want := e.replSnapshot(victim, layout)
			e.corruptByte(t, e.names[victim], tc.damage(m, layout))

			rep, err := m.ScrubOnce()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Corrupt != 1 || rep.Repaired != 1 || rep.Unrepaired != 0 {
				t.Fatalf("scrub report %+v, want exactly 1 corrupt, 1 repaired", rep)
			}
			if got := m.Health()[victim].Corruptions; got != 1 {
				t.Fatalf("node %d charged %d corruptions, want 1", victim, got)
			}
			if !bytes.Equal(e.replSnapshot(victim, layout), want) {
				t.Fatal("damaged replica not restored byte-for-byte")
			}
			rep, err = m.ScrubOnce()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Corrupt != 0 {
				t.Fatalf("second pass found damage: %+v", rep)
			}
		})
	}
}

// awaitDirectConverged waits until every node's direct zone is identical:
// DirectWrite returns on a majority, and damage injected before the last
// copy lands would be overwritten rather than found.
func awaitDirectConverged(t *testing.T, e *testEnv, l memnode.Layout) {
	t.Helper()
	zone := func(i int) []byte {
		return e.nw.Node(e.names[i]).Region(memnode.ReplRegionID).Snapshot()[l.DirectBase():l.MainBase()]
	}
	deadline := time.Now().Add(5 * time.Second)
	for i := 1; i < len(e.names); {
		if bytes.Equal(zone(i), zone(0)) {
			i++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatal("direct zones never converged")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackgroundLoopsStopBeforeReturning closes the memory while a scrub
// tick and a health probe are in flight on slowed nodes, then stops both
// loops: no dial may happen after Close, since a dial acquires the
// exclusive region and would revoke a successor coordinator's connection.
func TestBackgroundLoopsStopBeforeReturning(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}
	e := newEnv(t, 3, cfg0.Layout())
	faults := faultrdma.NewController(1, 0)
	var dials atomic.Int64
	cfg := baseConfig(e, "c")
	dial := cfg.Dial
	cfg.Dial = faults.WrapDialer(func(node string) (rdma.Verbs, error) {
		dials.Add(1)
		return dial(node)
	})
	m := newMemory(t, cfg)

	const delay = 20 * time.Millisecond
	for _, n := range e.names {
		faults.Node(n).SetDelay(delay, 0, 1)
	}
	stopScrub := m.StartScrub(time.Millisecond)
	stopRecovery := m.StartRecovery(time.Millisecond)
	// Wait until ops are being delayed, then past the first delay, so both
	// loops are mid-step with later steps' ops still in flight.
	for faults.Node(e.names[0]).Stats().Delays == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(delay + delay/2)
	m.Close()
	atClose := dials.Load()
	stopScrub()
	stopRecovery()
	// A loop still running after its stop returned would dial within a
	// delay or two; there is no event to wait on for a dial that must not
	// happen.
	time.Sleep(3 * delay)
	if got := dials.Load(); got != atClose {
		t.Fatalf("%d dial(s) after Close", got-atClose)
	}
	// Ops the closed memory refused are not charged to the nodes.
	for _, h := range m.Health() {
		if h.State != "live" {
			t.Fatalf("node %s is %s after Close, want live", h.Node, h.State)
		}
	}
}

// TestWriteBatchRacesClose runs WriteBatch calls concurrently with Close; under
// -race it catches an apply registered after Close began waiting for them.
func TestWriteBatchRacesClose(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}
	e := newEnv(t, 3, cfg0.Layout())
	m := newMemory(t, baseConfig(e, "c"))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				addr := uint64(w*4096 + k%64*8)
				if m.WriteBatch([]wal.Write{{Addr: addr, Data: []byte{byte(k)}}}) != nil {
					return
				}
			}
		}()
	}
	for m.Stats().Writes == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	m.Close()
	wg.Wait()
}
