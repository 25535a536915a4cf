// Command tcpbench measures the deployment people run: an F=1 Sift group of
// three memnoded and two siftd processes on loopback, built from this
// checkout's cmd/ with default sizing flags, driven over internal/rpc by one
// open-loop load process. It measures every layer from outside — its own
// spans around rpc calls and probe READs, counter deltas from siftd's
// /metrics, /statusz and /events, and CPU and memory from /proc — and adds
// no tracing inside the program.
//
// Usage (from the root of a checkout, through run.sh, which builds first):
//
//	bash tcpbench/run.sh --workload put --seed 1 --seconds 20 --trace 0
//	bash tcpbench/run.sh compare a.json ... vs b.json ...
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones. README.md
// lists every metric with the end-to-end metric each layer should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/repro/sift/internal/memnode"
	"github.com/repro/sift/internal/rdma"
)

// workload is one traffic mix. Every workload has a fixed reference rate at
// which latency and cost are measured, and a knee search above it.
type workload struct {
	name      string
	keys      int     // working set, populated during set-up
	getFrac   float64 // share of gets; the rest are puts
	refRate   float64 // ops/s
	kneeStart float64 // first rate the knee search tries
}

// Reference rates sit at about a quarter of each workload's knee. At half
// the knee, the group and the load process use two thirds of a 2-vCPU
// host, and other tenants' bursts there doubled p99 from run to run.
var workloads = []workload{
	// Every op takes the full write path; the cache is bypassed.
	{name: "put", keys: 4096, getFrac: 0, refRate: 1000, kneeStart: 3000},
	// About twice the coordinator cache (16384 keys × 0.5), so about half
	// the gets miss it and take one remote READ.
	{name: "read-heavy", keys: 16000, getFrac: 0.9, refRate: 3000, kneeStart: 14000},
}

const (
	latencyLimit  = 25.0             // ms: the p99 a knee rate must meet
	opBound       = 5 * time.Second  // due time to giving up on an op
	callBound     = 2 * time.Second  // one rpc call
	populateConc  = 64               // ops in flight while populating or reading back
	populateLimit = 25 * time.Second // bound on populating or reading back the working set
	stepDur       = time.Second      // one knee-search rate step
	lateLimitUs   = 1000.0           // generator median lateness that invalidates a run
	setups        = 3                // set-ups per run; setup_s is their median
	killLead      = 200 * time.Millisecond
	killBound     = 10 * time.Second // kill to giving up on the survivor serving
)

func main() {
	var (
		wname   = flag.String("workload", "", "workload: put or read-heavy")
		seed    = flag.Int64("seed", 1, "seed for every input the run generates")
		seconds = flag.Int("seconds", 20, "seconds of measurement")
		traceOn = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		binDir  = flag.String("bin", "", "directory holding the memnoded and siftd binaries")
		outDir  = flag.String("out", "", "directory for logs, traces and full results")
	)
	flag.Parse()
	if flag.Arg(0) == "compare" {
		if err := compareResults(flag.Args()[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tcpbench:", err)
			os.Exit(1)
		}
		return
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *wname {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 5 || *binDir == "" || *outDir == "" || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "usage: tcpbench -bin DIR -out DIR --workload put|read-heavy --seed N --seconds S(>=5) --trace 0|1")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpbench:", err)
		os.Exit(1)
	}
	b := &bench{
		w: *w, seed: *seed, secs: *seconds, traced: *traceOn == 1,
		binDir: *binDir, outDir: *outDir, logDir: filepath.Join(*outDir, "logs"),
		epoch: time.Now(), nconn: runtime.NumCPU(),
	}
	if err := os.MkdirAll(b.logDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tcpbench:", err)
		os.Exit(1)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()

	res, err := b.run()
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcpbench:", err)
		os.Exit(1)
	}
	res.Stamp, res.Trace = currentStamp(root), *traceOn
	fmt.Printf("stamp: nproc=%d GOMAXPROCS=%d goarch=%s go=%s commit=%s\n",
		res.Stamp.Nproc, res.Stamp.GOMAXPROCS, res.Stamp.GOARCH, res.Stamp.GoVersion, res.Stamp.Commit)
	full, _ := json.MarshalIndent(res, "", "  ")
	path := filepath.Join(b.outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *traceOn))
	if err := os.WriteFile(path, full, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "tcpbench:", err)
		os.Exit(1)
	}
	fmt.Printf("full result: %s\n", path)
	last, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(last))
}

// Every group started is registered so that any exit path kills its daemons.
var (
	activeMu sync.Mutex
	active   []*group
)

func register(g *group) {
	activeMu.Lock()
	active = append(active, g)
	activeMu.Unlock()
}

func stopAll() {
	activeMu.Lock()
	defer activeMu.Unlock()
	for _, g := range active {
		if err := g.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "tcpbench:", err)
		}
	}
	active = nil
}

type bench struct {
	w      workload
	seed   int64
	secs   int
	traced bool
	binDir string
	outDir string
	logDir string
	epoch  time.Time
	nconn  int

	seqBase uint64  // put stamps handed out so far, by phase
	tr      *tracer // the run's spans; nil unless traced
}

// rng returns the input generator of one phase: a function of the seed and
// the phase's name and rate only.
func (b *bench) rng(name string, rate float64) *rand.Rand {
	h := uint64(b.seed)*0x9E3779B97F4A7C15 ^ uint64(rate*1000)
	for _, c := range name {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h)))
}

// nextSeqs reserves a block of put stamps for one phase.
func (b *bench) nextSeqs() uint64 {
	b.seqBase += 1 << 32
	return b.seqBase
}

// deployment is the running group a run measures, with its client and
// every op made against it.
type deployment struct {
	g   *group
	c   *caller
	lg  *loadgen
	ops []opRec
}

// phases are the steps of one coordinator loss, from siftd's events: the
// SIGKILL to election.won, won to coordinator.promoted, promoted to the
// first OK op; and the survivor's election campaigns in between. censored
// marks a loss the survivor never recovered from within killBound: its
// outage is then the time it was watched, a lower bound.
type phases struct {
	unavailMs, detectMs, takeoverMs, rerouteMs, campaigns float64
	censored                                              bool
}

// setup launches a group, waits for a coordinator to serve, and populates
// the working set; it returns once the coordinator has applied every
// populating put.
func (b *bench) setup() (d *deployment, err error) {
	g, err := newGroup(b.binDir, b.logDir)
	if err != nil {
		return nil, err
	}
	register(g)
	if err := g.startMems(); err != nil {
		return nil, err
	}
	if err := g.startSifts(); err != nil {
		return nil, err
	}
	c := newCaller(g.rpcAddrs, b.nconn, callBound)
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	d = &deployment{g: g, c: c}
	d.lg = &loadgen{c: d.c, epoch: b.epoch, opBound: opBound}
	sched := make([]arrival, b.w.keys)
	base := b.nextSeqs()
	for i := range sched {
		sched[i] = arrival{key: int32(i), put: true, seq: base + uint64(i) + 1}
	}
	// A put that fails while populating is sent again with the same stamp
	// until populateLimit: set-up loads the group far above its apply rate,
	// and an overloaded group may refuse a put (its history records both).
	deadline := time.Now().Add(populateLimit)
	for len(sched) > 0 {
		ops := d.lg.closedLoop(sched, populateConc, deadline)
		d.ops = append(d.ops, ops...)
		sched = sched[:0]
		for i := range ops {
			if ops[i].st != stOK {
				sched = append(sched, arrival{key: ops[i].key, put: true, seq: ops[i].seq})
			}
		}
		if len(sched) > 0 && !time.Now().Before(deadline) {
			msg, _ := d.c.firstErr.Load().(string)
			return nil, fmt.Errorf("set-up: %d keys not populated after %v (first error: %s)", len(sched), populateLimit, msg)
		}
		if len(sched) > 0 {
			fmt.Printf("set-up: retrying %d puts that failed while populating\n", len(sched))
		}
	}
	// Puts are acknowledged at commit and applied in the background; the
	// working set is populated once the coordinator has applied them all.
	if err := waitApplied(g, 20*time.Second); err != nil {
		return nil, err
	}
	return d, nil
}

// waitApplied waits until the coordinator, whichever node it is by then,
// has applied every put it acknowledged.
func waitApplied(g *group, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if applyLag(g, g.coordinator()) == 0 {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("set-up: puts not applied after %v", limit)
}

// lossPhases reads the phases of a coordinator loss at lost from the events
// of the survivor, the siftd that took over; campaignsBefore is its
// campaign counter before the loss.
func (g *group) lossPhases(survivor int, lost, firstOK time.Time, campaignsBefore uint64, tr *tracer) (phases, error) {
	var p phases
	evs, err := fetch(g.dbgAddrs[survivor], "/events", parseEvents)
	if err != nil {
		return p, err
	}
	st, err := fetch(g.dbgAddrs[survivor], "/statusz", parseStatusz)
	if err != nil {
		return p, err
	}
	won, ok1 := firstEvent(evs, "election.won", lost)
	promoted, ok2 := firstEvent(evs, "coordinator.promoted", lost)
	if !ok1 || !ok2 {
		return p, fmt.Errorf("siftd%d: no election.won/coordinator.promoted after the loss", survivor+1)
	}
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }
	p.unavailMs = ms(lost, firstOK)
	p.detectMs = ms(lost, won)
	p.takeoverMs = ms(won, promoted)
	p.rerouteMs = ms(promoted, firstOK)
	p.campaigns = float64(st.Elections - campaignsBefore)
	id := tr.newID()
	tr.record(id, 0, "coordinator.loss", lost, firstOK)
	tr.record(tr.newID(), id, "election.detect", lost, won)
	tr.record(tr.newID(), id, "core.takeover", won, promoted)
	tr.record(tr.newID(), id, "rpc.reroute", promoted, firstOK)
	return p, nil
}

// roles returns the indexes of the siftd reporting the coordinator role
// and of the one reporting the follower role, each -1 if there is none.
func (g *group) roles() (coord, follower int) {
	coord, follower = -1, -1
	for i, a := range g.dbgAddrs {
		if !g.sifts[i].alive() {
			continue
		}
		if st, err := fetch(a, "/statusz", parseStatusz); err == nil {
			switch st.Role {
			case "coordinator":
				coord = i
			case "follower":
				follower = i
			}
		}
	}
	return coord, follower
}

// coordinator returns the index of the siftd reporting the coordinator
// role, or -1.
func (g *group) coordinator() int {
	for i, a := range g.dbgAddrs {
		if !g.sifts[i].alive() {
			continue
		}
		if st, err := fetch(a, "/statusz", parseStatusz); err == nil && st.Role == "coordinator" {
			return i
		}
	}
	return -1
}

// window is one measured open-loop phase with the group's CPU over it and,
// when traced, the layers' counters at its edges.
type window struct {
	ph      *phase
	st      phaseStats
	siftCPU float64 // the group's CPU seconds over the window
	memCPU  float64

	m0, m1      metricsSample
	s0, s1      statusz
	applyLagMax float64
	rttUs       []float64
	callUs      []float64
}

// cpuPerOp is the group's CPU per op attempted over the window, in µs.
func (w *window) cpuPerOp() float64 {
	return (w.siftCPU + w.memCPU) * 1e6 / float64(w.st.attempted)
}

// measure runs one open-loop window at rate and records the group's CPU at
// its edges; traced, it also snapshots the coordinator's counters at the
// edges, samples its apply lag and probes every memory node with 8-byte
// READs throughout.
func (b *bench) measure(d *deployment, name string, rate float64, dur time.Duration, traced bool) (*window, error) {
	w := &window{}
	var (
		ci        = -1
		stop      = make(chan struct{})
		bg        sync.WaitGroup
		errMu     sync.Mutex
		bgErr     error
		sift, mem float64
	)
	setErr := func(err error) {
		errMu.Lock()
		if bgErr == nil {
			bgErr = err
		}
		errMu.Unlock()
	}
	if traced {
		ci = d.g.coordinator()
		if ci < 0 {
			return nil, errors.New("no coordinator before a traced window")
		}
		d.lg.tr = b.tr
		defer func() { d.lg.tr = nil }()
	}
	edge := func(end bool) {
		if traced {
			m, err1 := fetch(d.g.dbgAddrs[ci], "/metrics", parseMetrics)
			s, err2 := fetch(d.g.dbgAddrs[ci], "/statusz", parseStatusz)
			if err := errors.Join(err1, err2); err != nil {
				setErr(err)
			}
			if end {
				w.m1, w.s1 = m, s
			} else {
				w.m0, w.s0 = m, s
			}
		}
		if end {
			close(stop)
			bg.Wait()
			s1, m1 := d.g.cpu()
			w.siftCPU, w.memCPU = s1-sift, m1-mem
			return
		}
		sift, mem = d.g.cpu()
		if traced {
			bg.Add(2)
			go func() { defer bg.Done(); w.applyLagMax = sampleApplyLag(d.g.dbgAddrs[ci], stop) }()
			go func() {
				defer bg.Done()
				if err := probeReads(d.g.memAddrs, d.lg.tr, stop); err != nil {
					setErr(err)
				}
			}()
		}
	}
	sched := schedule(b.rng(name, rate), rate, dur, b.w.keys, b.w.getFrac, b.nextSeqs())
	w.ph = d.lg.run(name, rate, sched, dur, 8192, false, edge)
	d.ops = append(d.ops, w.ph.ops...)
	w.st = w.ph.stats()
	if traced {
		w.rttUs = b.tr.durations("rdma.read", w.ph.start, w.ph.start.Add(dur))
		w.callUs = b.tr.durations("rpc.call", w.ph.start, w.ph.start.Add(dur))
	}
	return w, bgErr
}

// sampleApplyLag polls the coordinator's kv Puts−Applies every 50 ms until
// stop and returns the largest gap seen.
func sampleApplyLag(dbg string, stop <-chan struct{}) float64 {
	max := 0.0
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return max
		case <-t.C:
			if st, err := fetch(dbg, "/statusz", parseStatusz); err == nil {
				if lag := st.KV["Puts"] - st.KV["Applies"]; lag > max {
					max = lag
				}
			}
		}
	}
}

// probeReads READs each memory node's 8-byte shared admin (heartbeat) word
// every 20 ms until stop, recording each as an rdma.read span. The admin
// region is shared, so these reads fence nothing.
func probeReads(addrs []string, tr *tracer, stop <-chan struct{}) error {
	var conns []rdma.Verbs
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for _, a := range addrs {
		c, err := rdma.DialTCP(a, rdma.DialOpts{OpDeadline: time.Second})
		if err != nil {
			return fmt.Errorf("probe dial %s: %w", a, err)
		}
		conns = append(conns, c)
	}
	buf := make([]byte, 8)
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-t.C:
			for _, c := range conns {
				start := time.Now()
				if err := c.Read(memnode.AdminRegionID, memnode.AdminWordOffset, buf); err != nil {
					return fmt.Errorf("probe read: %w", err)
				}
				tr.record(tr.newID(), 0, "rdma.read", start, time.Now())
			}
		}
	}
}

// knee searches, within budget, for the highest rate whose window meets
// the latency limit with no queue overflow and no backlog at its end:
// neither ops still outstanding at the load process nor puts the
// coordinator has acknowledged but not yet applied. Each step starts from
// a drained group.
func (b *bench) knee(d *deployment, budget time.Duration) (float64, []stepResult) {
	cfg := kneeConfig{
		start: b.w.kneeStart, floor: b.w.refRate / 4, ceil: 64000,
		grow: 1.35, resolution: 0.02,
		maxSteps: int(budget / (stepDur + 300*time.Millisecond)),
	}
	return searchKnee(cfg, func(rate float64) stepResult {
		sched := schedule(b.rng("knee", rate), rate, stepDur, b.w.keys, b.w.getFrac, b.nextSeqs())
		// Little's law: more ops outstanding than rate × limit means the
		// mean latency is already past the limit.
		maxIn := int(math.Max(64, rate*latencyLimit/1000*2.5))
		lag := -1.0
		ph := d.lg.run("knee", rate, sched, stepDur, maxIn, true, func(end bool) {
			if end {
				lag = applyLag(d.g, d.c.coordinator())
			}
		})
		d.ops = append(d.ops, ph.ops...)
		st := ph.stats()
		r := stepResult{rate: rate, p99ms: st.p99}
		r.pass = stepPasses(rate, st.p99, ph.dropped, ph.backlog, lag)
		fmt.Printf("  knee step %8.0f ops/s: p99 %8.3f ms, dropped %d, backlog %d ops + %.0f unapplied puts -> %s\n",
			rate, st.p99, ph.dropped, ph.backlog, lag, passFail(r.pass))
		waitDrained(d.g, 5*time.Second)
		return r
	})
}

// stepPasses is the knee criterion for one step at rate: p99 (ms) within
// the latency limit, no arrival dropped, and at most the limit's worth of
// arrivals still outstanding at the load process (backlog) or acknowledged
// but unapplied at the coordinator (lag, -1 if unknown) when it closed.
func stepPasses(rate, p99 float64, dropped, backlog int, lag float64) bool {
	limit := math.Max(8, rate*latencyLimit/1000)
	return p99 <= latencyLimit && dropped == 0 && float64(backlog) <= limit && lag >= 0 && lag <= limit
}

func passFail(ok bool) string {
	if ok {
		return "pass"
	}
	return "fail"
}

// applyLag returns the puts siftd i has acknowledged but not applied, or
// -1 if it cannot say.
func applyLag(g *group, i int) float64 {
	if i < 0 {
		return -1
	}
	st, err := fetch(g.dbgAddrs[i], "/statusz", parseStatusz)
	if err != nil || st.KV == nil {
		return -1
	}
	return st.KV["Puts"] - st.KV["Applies"]
}

// waitDrained waits, up to limit, until coordinator i has applied every
// put, then a little longer for its worker queues.
func waitDrained(g *group, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) && applyLag(g, g.coordinator()) != 0 {
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
}

// takeover SIGKILLs the coordinator siftd of a populated group while the
// workload's mix runs at its reference rate, and returns the outage: from
// the kill to the first op sent after it that completes OK, in phases. The
// killed node is not restarted. If the survivor has not served killBound
// after the kill, the window ends and the loss is returned censored.
func (b *bench) takeover(d *deployment) (phases, error) {
	var p phases
	// After an overload, a deposed coordinator can still report the role
	// for a while; a kill is timed only against a clean pair.
	ci, si := -1, -1
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if ci, si = d.g.roles(); ci >= 0 && si >= 0 {
			break
		}
	}
	if ci < 0 || si < 0 {
		if ci = d.g.coordinator(); ci < 0 {
			return p, errors.New("takeover: no coordinator to kill")
		}
		si = 1 - ci
		fmt.Printf("  takeover: siftd%d does not report the follower role; killing siftd%d anyway\n", si+1, ci+1)
	}
	before, err := fetch(d.g.dbgAddrs[si], "/statusz", parseStatusz)
	if err != nil {
		return p, err
	}
	rate := b.w.refRate
	dur := killLead + killBound
	sched := schedule(b.rng("takeover", rate), rate, dur, b.w.keys, b.w.getFrac, b.nextSeqs())
	var tKill, gaveUp time.Time
	killed := make(chan error, 1)
	d.lg.tr = b.tr
	defer func() { d.lg.tr = nil }()
	ph := d.lg.run("takeover", rate, sched, dur, 8192, false, func(end bool) {
		if end {
			err = <-killed
			return
		}
		go func() {
			defer d.lg.halt.Store(true)
			time.Sleep(killLead)
			tKill = time.Now()
			if err := d.g.sifts[ci].kill(); err != nil {
				killed <- err
				return
			}
			// Only calls sent once the old coordinator is gone can show
			// that the survivor serves.
			d.lg.watch(time.Now())
			for d.lg.firstOK.Load() == 0 && time.Since(tKill) < killBound {
				time.Sleep(time.Millisecond)
			}
			gaveUp = time.Now()
			killed <- nil
		}()
	})
	d.ops = append(d.ops, ph.ops...)
	if err != nil {
		return p, err
	}
	if d.lg.firstOK.Load() == 0 {
		p = phases{unavailMs: float64(gaveUp.Sub(tKill)) / 1e6, censored: true}
		if st, e := fetch(d.g.dbgAddrs[si], "/statusz", parseStatusz); e == nil {
			p.campaigns = float64(st.Elections - before.Elections)
		}
		fmt.Printf("  takeover (siftd%d killed): no op served in %.0f ms; the survivor campaigned %.0f times without promoting\n",
			ci+1, p.unavailMs, p.campaigns)
		return p, nil
	}
	first := b.epoch.Add(time.Duration(d.lg.firstOK.Load()))
	if p, err = d.g.lossPhases(si, tKill, first, before.Elections, b.tr); err != nil {
		// The outage is still timed; only its split into phases is lost.
		p = phases{unavailMs: float64(first.Sub(tKill)) / 1e6}
		fmt.Printf("  takeover (siftd%d killed): unavailable %.1f ms; no phases: %v\n", ci+1, p.unavailMs, err)
		return p, nil
	}
	fmt.Printf("  takeover (siftd%d killed): unavailable %.1f ms = detect %.1f + takeover %.1f + reroute %.1f, %.0f campaigns\n",
		ci+1, p.unavailMs, p.detectMs, p.takeoverMs, p.rerouteMs, p.campaigns)
	return p, nil
}

// readback reads every key once the load has stopped. A group that cannot
// serve fails the reads still pending after limit.
func (b *bench) readback(d *deployment, limit time.Duration) {
	sched := make([]arrival, b.w.keys)
	for i := range sched {
		sched[i] = arrival{key: int32(i)}
	}
	d.ops = append(d.ops, d.lg.closedLoop(sched, populateConc, time.Now().Add(limit))...)
}

// run performs one whole run and assembles its result.
func (b *bench) run() (*result, error) {
	w := b.w
	res := &result{Workload: w.name, Seed: b.seed, Seconds: b.secs, Correct: true, Metrics: map[string]metric{}}
	S := time.Duration(b.secs) * time.Second
	warm := time.Second
	fmt.Printf("tcpbench: workload %s, seed %d, %ds, trace %v; %d keys, %.0f%% gets, %d B values, reference %.0f ops/s, %d rpc connections\n",
		w.name, b.seed, b.secs, b.traced, w.keys, 100*w.getFrac, valueSize, w.refRate, b.nconn)
	fail := func(e error) {
		res.Correct = false
		res.Notes = append(res.Notes, e.Error())
		fmt.Println("check FAILED:", e)
	}
	tally := func(ops []opRec) {
		for i := range ops {
			if ops[i].st == stDropped {
				continue
			}
			res.Attempted++
			if ops[i].st != stOK {
				res.Failed++
			}
		}
	}

	// Full set-ups; the last group stays up to be measured.
	n := setups
	if b.traced {
		n = 1
		b.tr = newTracer(b.epoch, int(w.refRate*S.Seconds()*3)+100000)
	}
	var (
		setupS []float64
		d      *deployment
	)
	for i := 0; i < n; i++ {
		// A set-up's time runs from launching the first memnoded until the
		// coordinator has applied every populating put, failed attempts
		// included.
		t0 := time.Now()
		dep, err := b.setup()
		for try := 2; err != nil && try <= 3; try++ {
			// The group under test can fail to come up (a takeover that
			// never completes, a false failover while populating); a run
			// reports that and starts over with a fresh group.
			fmt.Printf("set-up %d failed (%v); starting a fresh group, attempt %d of 3\n", i+1, err, try)
			stopAll()
			dep, err = b.setup()
		}
		if err != nil {
			return nil, err
		}
		s := time.Since(t0).Seconds()
		fmt.Printf("set-up %d: %.3f s\n", i+1, s)
		setupS = append(setupS, s)
		if i == n-1 {
			d = dep
			break
		}
		tally(dep.ops)
		dep.c.close()
		if err := dep.g.stop(); err != nil {
			return nil, err
		}
	}
	defer d.c.close()

	wp := d.lg.run("warmup", w.refRate, schedule(b.rng("warmup", w.refRate), w.refRate, warm, w.keys, w.getFrac, b.nextSeqs()), warm, 8192, false, nil)
	d.ops = append(d.ops, wp.ops...)
	warmW := &window{ph: wp, st: wp.stats()}
	b.printWindow(warmW)
	var (
		ref, refT *window
		kneeRate  float64
		sift, mem float64 // peak RSS, MiB, through the reference windows
		err       error
	)
	if !b.traced {
		if ref, err = b.measure(d, "reference", w.refRate, S, false); err != nil {
			return nil, err
		}
		b.printWindow(ref)
		sift, mem = d.g.peakRSS()
	} else {
		if ref, err = b.measure(d, "reference", w.refRate, S/4, false); err != nil {
			return nil, err
		}
		b.printWindow(ref)
		if refT, err = b.measure(d, "traced", w.refRate, S/4, true); err != nil {
			return nil, err
		}
		b.printWindow(refT)
		// Memory is read before the knee search: overload steps can set
		// off a false failover, and the second coordinator's memory is not
		// the group's steady footprint.
		sift, mem = d.g.peakRSS()
		var steps []stepResult
		kneeRate, steps = b.knee(d, S/2-warm)
		fmt.Printf("knee: %.0f ops/s after %d steps\n", kneeRate, len(steps))
	}
	// A coordinator SIGKILL over the populated working set: its outage,
	// and the read-back after it, which finds any acknowledged write the
	// takeover lost.
	waitDrained(d.g, 5*time.Second)
	loss, err := b.takeover(d)
	if err != nil {
		return nil, err
	}
	if loss.censored {
		res.Notes = append(res.Notes, fmt.Sprintf("takeover: the survivor never served within %v of the kill", killBound))
	}
	if b.tr != nil {
		path := filepath.Join(b.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, b.seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d spans (%d dropped) written to %s\n", len(b.tr.spans()), b.tr.dropped.Load(), path)
	}

	// Output checks: every put acknowledged before the kill must read back
	// after the takeover. A survivor that never served fails the read-back
	// quickly instead of holding the run.
	limit := populateLimit
	if loss.censored {
		limit = time.Second
	}
	b.readback(d, limit)
	checked, errs := checkHistory(d.ops)
	fmt.Printf("check: %d reads verified against %d ops\n", checked, len(d.ops))
	if e, ok := d.c.firstErr.Load().(string); ok {
		fmt.Printf("first error that ended an op: %s\n", e)
	}
	for _, e := range errs {
		fail(e)
	}
	if late := ref.st.lateP50us; late > lateLimitUs {
		fail(fmt.Errorf("invalid run: the load generator fell behind its schedule, %.0f µs late at the median (limit %.0f µs)", late, lateLimitUs))
	}
	tally(d.ops)

	// Metrics.
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !b.traced {
		// The traffic at the reference rate; the takeovers' failures are
		// their outage, and the read-back is a check.
		measured := warmW.st.attempted + ref.st.attempted
		ok := warmW.st.ok + ref.st.ok
		put("setup_s", median(setupS), "s")
		put("p50_ms", ref.st.p50, "ms")
		put("cpu_us_per_op", ref.cpuPerOp(), "us")
		put("rss_mb", sift+mem, "MiB")
		put("ok_frac", float64(ok)/float64(measured), "ratio")
		fmt.Printf("not gated, reported with --trace 1: p99_ms %.3f ms, unavail_ms %.1f ms\n", ref.st.p99, loss.unavailMs)
		fmt.Printf("failed_frac: %.6f (%d of %d ops at the reference rate)\n", 1-float64(ok)/float64(measured), measured-ok, measured)
	} else {
		t := refT
		ops := float64(t.st.attempted)
		putMean, nPut := summaryMean(t.m0, t.m1, "sift_client_op_seconds", `op="put"`)
		getMean, nGet := summaryMean(t.m0, t.m1, "sift_client_op_seconds", `op="get"`)
		handler := 0.0
		if nPut+nGet > 0 {
			handler = (putMean*nPut + getMean*nGet) / (nPut + nGet) * 1e6
		}
		callMean := mean(t.callUs)
		kv := func(k string) float64 { return counterDelta(t.s0.KV, t.s1.KV, k) }
		rm := func(k string) float64 { return counterDelta(t.s0.Repmem, t.s1.Repmem, k) }
		meanUs := func(name string) float64 { m, _ := summaryMean(t.m0, t.m1, name, ""); return m * 1e6 }
		ratio := func(a, b float64) float64 {
			if b == 0 {
				return 0
			}
			return a / b
		}
		put("p99_ms", ref.st.p99, "ms")
		put("knee_ops_s", kneeRate, "ops/s")
		put("rpc.call_us", callMean, "us")
		put("rpc.hop_us", callMean-handler, "us")
		put("kv.put_us", putMean*1e6, "us")
		put("kv.get_us", getMean*1e6, "us")
		put("kv.cache_hit_ratio", ratio(kv("CacheHits"), kv("CacheHits")+kv("CacheMisses")), "ratio")
		put("kv.chain_reads_per_op", ratio(kv("ChainReads"), kv("Puts")+kv("Gets")), "count")
		put("kv.apply_lag_max", t.applyLagMax, "count")
		put("repmem.wal_commit_us", meanUs("sift_repmem_direct_write_seconds"), "us")
		put("repmem.quorum_wait_us", meanUs("sift_repmem_quorum_wait_seconds"), "us")
		put("repmem.queue_wait_us", ratio(rm("QueueWaitUs"), rm("Enqueued")), "us")
		put("repmem.read_us", meanUs("sift_repmem_read_seconds"), "us")
		put("repmem.node_ops_per_op", ratio(rm("Enqueued"), ops), "count")
		put("rdma.verbs_per_op", ratio(rm("TransportOps"), ops), "count")
		put("rdma.flushes_per_op", ratio(rm("TransportFlushes"), ops), "count")
		put("rdma.read_rtt_us", median(t.rttUs), "us")
		put("siftd.cpu_us_per_op", t.siftCPU*1e6/ops, "us")
		put("memnode.cpu_us_per_op", t.memCPU*1e6/ops, "us")
		put("siftd.rss_mb", sift, "MiB")
		put("memnode.rss_mb", mem, "MiB")
		put("loadgen.late_us", t.st.lateP99us, "us")
		put("loadgen.cpu_us_per_op", t.st.lgCPUusPerOp, "us")
		put("unavail_ms", loss.unavailMs, "ms")
		put("election.detect_ms", loss.detectMs, "ms")
		put("core.takeover_ms", loss.takeoverMs, "ms")
		put("rpc.reroute_ms", loss.rerouteMs, "ms")
		put("election.campaigns_per_failover", loss.campaigns, "count")
		put("trace.overhead_pct", 100*(t.st.p50-ref.st.p50)/ref.st.p50, "%")
	}
	b.printMetrics(res)
	return res, nil
}

func (b *bench) printWindow(w *window) {
	s := w.st
	fmt.Printf("%s: %.0f ops/s for %v: %d ops, %d failed, %d dropped; p50 %.3f ms, p99 %.3f ms, p%g %.3f ms (%d samples beyond); generator late p50 %.0f µs, p99 %.0f µs, %.1f µs CPU/op\n",
		w.ph.name, w.ph.rate, w.ph.dur, s.attempted, s.failed, s.dropped, s.p50, s.p99, s.tailPct, s.tail, s.tailBeyond, s.lateP50us, s.lateP99us, s.lgCPUusPerOp)
}

func (b *bench) printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", k, m.Value, m.Unit)
		if to, ok := layerMoves[k]; ok {
			line += " -> " + to
		}
		fmt.Println(line)
	}
}

// layerMoves names, for each per-layer metric, the end-to-end metric and
// workload it is predicted to move.
var layerMoves = map[string]string{
	"rpc.call_us":                     "p50_ms on read-heavy",
	"rpc.hop_us":                      "p50_ms on read-heavy (the hop is most of a cache-hit get)",
	"kv.put_us":                       "p50_ms on put",
	"kv.get_us":                       "p50_ms on read-heavy",
	"kv.cache_hit_ratio":              "p50_ms, knee_ops_s on read-heavy",
	"kv.chain_reads_per_op":           "cpu_us_per_op, knee_ops_s on put and read-heavy",
	"kv.apply_lag_max":                "knee_ops_s and p99_ms (not gated) on put: a full WAL ring stalls commits",
	"repmem.wal_commit_us":            "p50_ms on put",
	"repmem.quorum_wait_us":           "knee_ops_s and p99_ms (not gated) on put",
	"repmem.queue_wait_us":            "knee_ops_s and p99_ms (not gated) on put",
	"repmem.read_us":                  "p50_ms on read-heavy",
	"repmem.node_ops_per_op":          "cpu_us_per_op, knee_ops_s on put",
	"rdma.verbs_per_op":               "cpu_us_per_op, knee_ops_s on put",
	"rdma.flushes_per_op":             "cpu_us_per_op, knee_ops_s on put",
	"rdma.read_rtt_us":                "p50_ms on put and read-heavy",
	"siftd.cpu_us_per_op":             "cpu_us_per_op",
	"memnode.cpu_us_per_op":           "cpu_us_per_op",
	"siftd.rss_mb":                    "rss_mb",
	"memnode.rss_mb":                  "rss_mb",
	"loadgen.late_us":                 "validity only: must not move",
	"loadgen.cpu_us_per_op":           "validity only: must not move",
	"p99_ms":                          "not gated: the reference window's p99 (too unsteady between runs to bound)",
	"knee_ops_s":                      "not gated: the highest rate meeting the knee criterion (too unsteady between runs to bound)",
	"unavail_ms":                      "not gated: the outage after a coordinator SIGKILL over the populated working set (moves with the host's load)",
	"election.detect_ms":              "unavail_ms on put and read-heavy",
	"core.takeover_ms":                "unavail_ms on put and read-heavy (repmem recovery and kv replay block here)",
	"rpc.reroute_ms":                  "unavail_ms on put and read-heavy",
	"election.campaigns_per_failover": "unavail_ms on put and read-heavy",
	"trace.overhead_pct":              "tracing cost: traced minus untraced p50 at the reference rate",
}
