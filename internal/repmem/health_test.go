package repmem

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/repro/sift/internal/obs"
)

// TestHealthTableTransitions tries every (from, to) pair of node states on a
// fresh memory. A legal move changes the state, bumps exactly its counter
// once, emits exactly its event, and stamps the exclusion clock and drops the
// connection exactly when it should; an illegal one leaves the state, the
// counters and the event ring untouched.
func TestHealthTableTransitions(t *testing.T) {
	counters := map[string]func(Stats) uint64{
		"failures":  func(s Stats) uint64 { return s.NodeFailures },
		"suspected": func(s Stats) uint64 { return s.NodeSuspected },
		"degraded":  func(s Stats) uint64 { return s.NodeDegraded },
		"recovered": func(s Stats) uint64 { return s.NodeRecovered },
	}
	type row struct {
		counter, event string
		exclude, drop  bool
	}
	dead := row{"failures", "node.dead", true, true}
	legal := map[[2]int32]row{
		{nodeLive, nodeSuspect}:  {"suspected", "node.suspect", true, false},
		{nodeLive, nodeDegraded}: {"degraded", "node.degraded", true, false},
		{nodeLive, nodeDead}:     dead,
		{nodeSuspect, nodeDead}:  dead,
		{nodeDegraded, nodeDead}: dead,
		{nodeSyncing, nodeDead}:  dead,
		{nodeDead, nodeSyncing}:  {"", "node.syncing", false, false},
		{nodeSyncing, nodeLive}:  {"recovered", "node.recovered", false, false},
		{nodeSuspect, nodeLive}:  {"", "node.readmitted", false, false},
		{nodeDegraded, nodeLive}: {"", "node.readmitted", false, false},
	}
	if len(legal) != len(healthTable) {
		t.Fatalf("healthTable has %d moves, test expects %d", len(healthTable), len(legal))
	}

	layout := Config{MemSize: 64 << 10, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}.Layout()
	for from := int32(0); from < numNodeStates; from++ {
		for to := int32(0); to < numNodeStates; to++ {
			t.Run(fmt.Sprintf("%s->%s", stateName(from), stateName(to)), func(t *testing.T) {
				// A fresh group per pair: an asynchronous membership publish
				// outliving one memory must not redial (and fence) the next.
				e := newEnv(t, 3, layout)
				cfg := baseConfig(e, "c0")
				cfg.Events = obs.NewRing(0)
				m := newMemory(t, cfg)
				m.state[0].Store(from)
				before, seq := m.Stats(), cfg.Events.Seq()

				want, ok := legal[[2]int32{from, to}]
				if got := m.transition(0, to, "test"); got != ok {
					t.Fatalf("transition returned %v, want %v", got, ok)
				}
				wantState := from
				if ok {
					wantState = to
				}
				if s := m.state[0].Load(); s != wantState {
					t.Fatalf("state %s, want %s", stateName(s), stateName(wantState))
				}
				after := m.Stats()
				for name, get := range counters {
					var delta uint64
					if ok && name == want.counter {
						delta = 1
					}
					if d := get(after) - get(before); d != delta {
						t.Errorf("counter %s moved by %d, want %d", name, d, delta)
					}
				}
				var events []string
				for _, ev := range cfg.Events.Recent(0) {
					if ev.Seq > seq {
						events = append(events, ev.Type)
					}
				}
				wantEvents := 0
				if ok {
					wantEvents = 1
				}
				if len(events) != wantEvents || (ok && events[0] != want.event) {
					t.Errorf("events %v, want exactly %q", events, want.event)
				}
				if stamped := m.SinceExclusion() < time.Minute; stamped != (ok && want.exclude) {
					t.Errorf("exclusion clock stamped = %v, want %v", stamped, ok && want.exclude)
				}
				if dropped := m.conns[0].Load() == nil; dropped != (ok && want.drop) {
					t.Errorf("connection dropped = %v, want %v", dropped, ok && want.drop)
				}
			})
		}
	}
}

// TestTransportCountersNeverDecrease drops, redials and replaces a node's
// connection while writers run; the transport totals in Stats must only
// ever grow.
func TestTransportCountersNeverDecrease(t *testing.T) {
	cfg0 := Config{MemSize: 64 << 10, DirectSize: 16 << 10, WALSlots: 64, WALSlotSize: 512}
	e := newEnv(t, 3, cfg0.Layout())
	addMachine(t, e, "m3", cfg0.Layout())
	m := newMemory(t, baseConfig(e, "c0"))

	payload := []byte("transport counters")
	for k := 0; k < 32; k++ {
		if err := m.Write(uint64(k)*64, payload); err != nil {
			t.Fatal(err)
		}
	}
	last := m.Stats()
	if last.TransportOps == 0 {
		t.Fatal("no transport ops counted before the failure")
	}
	check := func(step string) {
		t.Helper()
		s := m.Stats()
		if s.TransportOps < last.TransportOps || s.TransportFlushes < last.TransportFlushes || s.MaxInFlight < last.MaxInFlight {
			t.Fatalf("%s: transport totals went backwards: ops %d->%d flushes %d->%d maxInFlight %d->%d", step,
				last.TransportOps, s.TransportOps, last.TransportFlushes, s.TransportFlushes, last.MaxInFlight, s.MaxInFlight)
		}
		last = s
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = m.Write(uint64(k%512)*64, payload)
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for k := 0; k < 5; k++ {
		check("before the failure")
		time.Sleep(time.Millisecond)
	}
	c, err := m.conn(1)
	if err != nil {
		t.Fatal(err)
	}
	m.noteResult(1, c, 0, errors.New("connection reset"))
	if s := m.state[1].Load(); s != nodeDead {
		t.Fatalf("node state %s after a transport error, want dead", stateName(s))
	}
	check("after the connection was dropped")
	if err := m.RecoverNodeNow("m1"); err != nil {
		t.Fatal(err)
	}
	check("after the node was rebuilt on a fresh connection")
	if err := m.ReplaceNode("m1", "m3"); err != nil {
		t.Fatal(err)
	}
	check("after the slot was handed to a new machine")
	for k := 0; k < 5; k++ {
		time.Sleep(time.Millisecond)
		check("after the replacement")
	}
}
