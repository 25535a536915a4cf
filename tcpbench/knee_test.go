package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/repro/sift/internal/rpc"
)

func TestSearchKneeBracketsAndBisects(t *testing.T) {
	cfg := kneeConfig{start: 1000, floor: 100, ceil: 64000, grow: 1.35, resolution: 0.02, maxSteps: 30}
	for _, capacity := range []float64{700, 3000, 4100, 50000} {
		knee, steps := searchKnee(cfg, func(r float64) stepResult { return stepResult{rate: r, pass: r <= capacity} })
		if knee > capacity || knee < capacity/1.02 {
			t.Errorf("capacity %v: knee %v after %d steps, want within 2%% below", capacity, knee, len(steps))
		}
	}
	// Never passing gives 0; always passing stops at the ceiling.
	if knee, _ := searchKnee(cfg, func(r float64) stepResult { return stepResult{rate: r} }); knee != 0 {
		t.Errorf("never passing: knee %v, want 0", knee)
	}
	if knee, _ := searchKnee(cfg, func(r float64) stepResult { return stepResult{rate: r, pass: true} }); knee != cfg.ceil {
		t.Errorf("always passing: knee %v, want the ceiling", knee)
	}
	// A small budget stops the search early with the best rate so far.
	cfg.maxSteps = 3
	knee, steps := searchKnee(cfg, func(r float64) stepResult { return stepResult{rate: r, pass: r <= 4100} })
	if len(steps) != 3 || math.Abs(knee-1822.5) > 1e-6 {
		t.Errorf("3 steps: knee %v after %d steps", knee, len(steps))
	}
	// One failed step at a rate is retried; a pass on the retry counts.
	cfg.maxSteps = 30
	flaky := map[float64]bool{}
	knee, _ = searchKnee(cfg, func(r float64) stepResult {
		if r == 1000 && !flaky[r] {
			flaky[r] = true
			return stepResult{rate: r}
		}
		return stepResult{rate: r, pass: r <= 3000}
	})
	if knee < 3000/1.02 || knee > 3000 {
		t.Errorf("one stalled step: knee %v, want about 3000", knee)
	}
}

// rateLimitedServer serves gets from one FIFO queue at a fixed capacity,
// so its knee is known: ops/s above capacity build an unbounded queue.
func rateLimitedServer(t *testing.T, capacity float64) string {
	t.Helper()
	interval := time.Duration(float64(time.Second) / capacity)
	var (
		mu   sync.Mutex
		next time.Time
	)
	srv := rpc.NewServer()
	srv.Handle(rpc.MethodStatus, func([]byte) ([]byte, error) { return []byte("coordinator"), nil })
	srv.Handle(rpc.MethodGet, func(p []byte) ([]byte, error) {
		key, _, err := rpc.DecodeKV(p)
		if err != nil {
			return nil, err
		}
		var k int32
		if _, err := fmt.Sscanf(string(key), "k%d", &k); err != nil {
			return nil, err
		}
		mu.Lock()
		now := time.Now()
		if next.Before(now) {
			next = now
		}
		next = next.Add(interval)
		at := next
		mu.Unlock()
		time.Sleep(time.Until(at))
		return makeValue(1, k), nil
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck — returns when the listener closes
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

func TestKneeAgainstRateLimitedServer(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a loopback server for a few seconds")
	}
	const capacity = 800.0
	addr := rateLimitedServer(t, capacity)
	c := newCaller([]string{addr}, 2, time.Second)
	defer c.close()
	lg := &loadgen{c: c, epoch: time.Now(), opBound: 2 * time.Second}
	rng := rand.New(rand.NewSource(1))
	const win = 400 * time.Millisecond
	cfg := kneeConfig{start: 300, floor: 50, ceil: 10000, grow: 1.35, resolution: 0.04, maxSteps: 12}
	knee, steps := searchKnee(cfg, func(rate float64) stepResult {
		sched := schedule(rng, rate, win, 100, 1, 0)
		maxIn := int(math.Max(64, rate*latencyLimit/1000*2.5))
		ph := lg.run("knee", rate, sched, win, maxIn, true, nil)
		st := ph.stats()
		time.Sleep(100 * time.Millisecond) // drain
		return stepResult{rate: rate, pass: stepPasses(rate, st.p99, ph.dropped, ph.backlog, 0), p99ms: st.p99}
	})
	for _, s := range steps {
		t.Logf("step %.0f ops/s: p99 %.2f ms pass %v", s.rate, s.p99ms, s.pass)
	}
	// A FIFO server near saturation queues for longer than the limit before
	// its throughput runs out, so the knee sits somewhat below capacity.
	if knee < 0.55*capacity || knee > 1.1*capacity {
		t.Fatalf("knee %.0f ops/s for a %v ops/s server", knee, capacity)
	}
}

func TestCallerBoundsHungCalls(t *testing.T) {
	srv := rpc.NewServer()
	srv.Handle(rpc.MethodStatus, func([]byte) ([]byte, error) { return []byte("coordinator"), nil })
	block := make(chan struct{})
	defer close(block)
	srv.Handle(rpc.MethodGet, func([]byte) ([]byte, error) { <-block; return nil, nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l) //nolint:errcheck — returns when the listener closes
	c := newCaller([]string{l.Addr().String()}, 1, 100*time.Millisecond)
	defer c.close()
	start := time.Now()
	out := c.do(rpc.MethodGet, rpc.EncodeKV([]byte("k000001"), nil), time.Now().Add(5*time.Second), nil)
	if out.st != stTimeout || time.Since(start) > 2*time.Second {
		t.Fatalf("hung call: outcome %d after %v, want a timeout after about 100ms", out.st, time.Since(start))
	}
	// The caller redials and serves status-checked connections again.
	out = c.do(rpc.MethodGet, rpc.EncodeKV([]byte("k000001"), nil), time.Now().Add(300*time.Millisecond), nil)
	if out.st != stTimeout {
		t.Fatalf("second hung call: outcome %d", out.st)
	}
}

func TestCallerGivesUpWithoutCoordinator(t *testing.T) {
	srv := rpc.NewServer()
	srv.Handle(rpc.MethodStatus, func([]byte) ([]byte, error) { return []byte("follower"), nil })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l) //nolint:errcheck — returns when the listener closes
	c := newCaller([]string{l.Addr().String()}, 1, time.Second)
	defer c.close()
	out := c.do(rpc.MethodPut, rpc.EncodeKV([]byte("k000001"), makeValue(1, 1)), time.Now().Add(200*time.Millisecond), nil)
	if out.st != stFailed || out.sent {
		t.Fatalf("no coordinator: outcome %d sent %v, want failed and unsent", out.st, out.sent)
	}
}
