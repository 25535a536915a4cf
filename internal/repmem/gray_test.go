package repmem

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/repro/sift/internal/rdma"
)

func TestQuorumGroupReportsRealAckCount(t *testing.T) {
	injected := errors.New("boom")
	g := newQuorumGroup(3, 3, nil)
	g.ack(nil)
	g.ack(injected)
	g.ack(injected)
	err := g.wait()
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("got %v, want ErrNoQuorum", err)
	}
	if !strings.Contains(err.Error(), "1 of 3 acks") {
		t.Fatalf("error %q should report the real ack count (1 of 3)", err)
	}
}

func TestQuorumGroupBornDecidedStillCountsLateAcks(t *testing.T) {
	g := newQuorumGroup(1, 2, nil)
	g.ack(nil)
	err := g.wait()
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("got %v, want ErrNoQuorum", err)
	}
	if !strings.Contains(err.Error(), "1 of 1 acks") {
		t.Fatalf("error %q should reflect the ack that did arrive", err)
	}
}

func TestRedialerBackoffBounds(t *testing.T) {
	const min, max = 10 * time.Millisecond, 80 * time.Millisecond
	r := newRedialer("m0", nil, min, max, 7)
	for failures := 1; failures <= 8; failures++ {
		r.failures = failures
		base := min << (failures - 1)
		if base > max {
			base = max
		}
		for i := 0; i < 50; i++ {
			b := r.backoffLocked()
			if b < base/2 || b >= base+base/2 {
				t.Fatalf("failures=%d: backoff %v outside [%v, %v)", failures, b, base/2, base+base/2)
			}
		}
	}
}

func TestRedialerCircuitOpensAfterFailure(t *testing.T) {
	dialErr := errors.New("refused")
	calls := 0
	r := newRedialer("m0", func(string) (rdma.Verbs, error) {
		calls++
		return nil, dialErr
	}, 50*time.Millisecond, time.Second, 1)

	if _, err := r.dialNow(); !errors.Is(err, dialErr) {
		t.Fatalf("first dial: got %v, want dial error", err)
	}
	// The circuit is now open: the next attempt is refused without dialing.
	if _, err := r.dialNow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second dial: got %v, want ErrCircuitOpen", err)
	}
	if calls != 1 {
		t.Fatalf("dialer called %d times, want 1 (circuit should fail fast)", calls)
	}
}

func TestRedialerRecoversAfterBackoff(t *testing.T) {
	e := newEnv(t, 1, Config{MemSize: 1024, DirectSize: 0, WALSlots: 4, WALSlotSize: 128}.Layout())
	fail := true
	inner := e.dialer("c0")
	r := newRedialer("m0", func(node string) (rdma.Verbs, error) {
		if fail {
			return nil, errors.New("down")
		}
		return inner(node)
	}, time.Millisecond, 4*time.Millisecond, 1)

	if _, err := r.dialNow(); err == nil {
		t.Fatal("dial to down node should fail")
	}
	fail = false
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := r.dialNow()
		if err == nil {
			v.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("redial never succeeded: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if f, open := r.snapshot(); f != 0 || open != 0 {
		t.Fatalf("snapshot after success: failures=%d open=%v, want zeroes", f, open)
	}
}

func TestWriteTargetsPartitionsSuspects(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}.Layout())
	m := newMemory(t, baseConfig(e, "c0"))

	m.state[1].Store(nodeSuspect)
	wait, best := m.writeTargets(m.Majority())
	if len(wait) != 2 || len(best) != 1 || best[0] != 1 {
		t.Fatalf("wait=%v best=%v, want wait={0,2} best={1}", wait, best)
	}

	// Degraded mode: with two suspects a true majority is impossible from
	// the healthy subset alone, so suspects are promoted back into the wait
	// set — a quorum ack must never mean a majority of the healthy few.
	m.state[2].Store(nodeSuspect)
	wait, best = m.writeTargets(m.Majority())
	if len(wait) != 3 || len(best) != 0 {
		t.Fatalf("degraded: wait=%v best=%v, want all three waited on", wait, best)
	}
}

func TestNoteNodeErrorSuspicionThenDeath(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}.Layout())
	m := newMemory(t, baseConfig(e, "c0"))
	conn := func(i int) rdma.Verbs {
		t.Helper()
		c, err := m.conn(i)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c0 := conn(0)

	for n := 1; n < suspectAfter; n++ {
		m.noteResult(0, c0, 0, rdma.ErrDeadline)
	}
	if s := m.state[0].Load(); s != nodeLive {
		t.Fatalf("after %d timeouts: state %d, want live", suspectAfter-1, s)
	}
	m.noteResult(0, c0, 0, rdma.ErrDeadline)
	if s := m.state[0].Load(); s != nodeSuspect {
		t.Fatalf("after %d timeouts: state %d, want suspect", suspectAfter, s)
	}
	for n := suspectAfter + 1; n < deadAfter; n++ {
		m.noteResult(0, c0, 0, rdma.ErrDeadline)
	}
	if s := m.state[0].Load(); s != nodeSuspect {
		t.Fatalf("after %d timeouts: state %d, want still suspect", deadAfter-1, s)
	}
	m.noteResult(0, c0, 0, rdma.ErrDeadline)
	if s := m.state[0].Load(); s != nodeDead {
		t.Fatalf("after %d timeouts: state %d, want dead", deadAfter, s)
	}
	st := m.Stats()
	if st.NodeTimeouts != deadAfter || st.NodeSuspected != 1 || st.NodeFailures != 1 {
		t.Fatalf("stats timeouts=%d suspected=%d failures=%d, want %d, 1, 1",
			st.NodeTimeouts, st.NodeSuspected, st.NodeFailures, deadAfter)
	}

	// A success on another node clears its streak.
	m.noteResult(1, conn(1), 0, rdma.ErrDeadline)
	m.noteResult(1, nil, time.Millisecond, nil)
	if n := m.health[1].consecTimeouts.Load(); n != 0 {
		t.Fatalf("streak after success = %d, want 0", n)
	}

	// Non-deadline errors kill immediately.
	m.noteResult(2, conn(2), 0, errors.New("connection reset"))
	if s := m.state[2].Load(); s != nodeDead {
		t.Fatalf("after transport error: state %d, want dead", s)
	}
}

// TestWriteCommitsWithSuspectNode is the repmem-level acceptance shape:
// with one node suspected gray, quorum writes commit without waiting on it,
// the suspect still receives data best-effort, and RecoverNodeNow repairs
// it back to live.
func TestWriteCommitsWithSuspectNode(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}.Layout())
	m := newMemory(t, baseConfig(e, "c0"))

	m.state[1].Store(nodeSuspect)
	want := []byte("gray-failure payload")
	if err := m.Write(100, want); err != nil {
		t.Fatalf("write with suspect node: %v", err)
	}
	got := make([]byte, len(want))
	if err := m.Read(100, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back %q err %v", got, err)
	}
	if names := m.SuspectMemoryNodes(); len(names) != 1 || names[0] != "m1" {
		t.Fatalf("SuspectMemoryNodes = %v, want [m1]", names)
	}
	h := m.Health()
	if len(h) != 3 || h[1].State != "suspect" {
		t.Fatalf("health = %+v, want m1 suspect", h)
	}

	if err := m.RecoverNodeNow("m1"); err != nil {
		t.Fatalf("recover suspect: %v", err)
	}
	if s := m.state[1].Load(); s != nodeLive {
		t.Fatalf("after recovery: state %d, want live", s)
	}
	if err := m.Read(100, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after recovery %q err %v", got, err)
	}
}

// TestDirectWriteCommitsWithSuspectNode covers the direct (unlogged) path.
func TestDirectWriteCommitsWithSuspectNode(t *testing.T) {
	e := newEnv(t, 3, Config{MemSize: 64 << 10, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}.Layout())
	m := newMemory(t, baseConfig(e, "c0"))

	m.state[2].Store(nodeSuspect)
	want := []byte("direct under gray")
	if err := m.DirectWrite(64, want); err != nil {
		t.Fatalf("direct write with suspect: %v", err)
	}
	got := make([]byte, len(want))
	if err := m.DirectRead(64, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("direct read back %q err %v", got, err)
	}
}
