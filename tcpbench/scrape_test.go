package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

const metricsBefore = `# HELP sift_client_op_seconds Client RPC operation latency.
# TYPE sift_client_op_seconds summary
sift_client_op_seconds{op="put",quantile="0.5"} 0.0004
sift_client_op_seconds_sum{op="put"} 1.5
sift_client_op_seconds_count{op="put"} 3000
sift_client_op_seconds_sum{op="get"} 0
sift_client_op_seconds_count{op="get"} 0
sift_repmem_direct_write_seconds_sum 0.9
sift_repmem_direct_write_seconds_count 3000
sift_is_coordinator 1
`

const metricsAfter = `# HELP sift_client_op_seconds Client RPC operation latency.
sift_client_op_seconds{op="put",quantile="0.5"} 0.0009
sift_client_op_seconds_sum{op="put"} 3.5
sift_client_op_seconds_count{op="put"} 7000
sift_client_op_seconds_sum{op="get"} 0
sift_client_op_seconds_count{op="get"} 0
sift_repmem_direct_write_seconds_sum 2.9
sift_repmem_direct_write_seconds_count 7000
sift_is_coordinator 1
`

func TestSummaryMeanUsesSumAndCountDeltas(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(metricsBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(metricsAfter))
	if err != nil {
		t.Fatal(err)
	}
	// 2 s over 4000 puts in the window, not the cumulative quantile.
	m, n := summaryMean(before, after, "sift_client_op_seconds", `op="put"`)
	if n != 4000 || math.Abs(m-0.0005) > 1e-12 {
		t.Fatalf("put mean = %v over %v ops, want 0.0005 over 4000", m, n)
	}
	if m, n := summaryMean(before, after, "sift_client_op_seconds", `op="get"`); m != 0 || n != 0 {
		t.Fatalf("get mean = %v over %v ops, want 0 over 0", m, n)
	}
	if m, _ := summaryMean(before, after, "sift_repmem_direct_write_seconds", ""); math.Abs(m-0.0005) > 1e-12 {
		t.Fatalf("direct write mean = %v, want 0.0005", m)
	}
	if after[`sift_client_op_seconds{op="put",quantile="0.5"}`] != 0.0009 {
		t.Fatalf("quantile line not parsed: %v", after)
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	if _, err := parseMetrics(strings.NewReader("sift_x{op=\"a\"} notanumber\n")); err == nil {
		t.Fatal("want an error for a non-numeric value")
	}
	if _, err := parseMetrics(strings.NewReader("loneword\n")); err == nil {
		t.Fatal("want an error for a line without a value")
	}
}

func TestStatuszCounterDeltas(t *testing.T) {
	before, err := parseStatusz(strings.NewReader(`{"role":"coordinator","term":2,"elections":3,
		"kv":{"Puts":100,"Applies":90,"CacheHits":10,"CacheMisses":30},
		"repmem":{"TransportOps":1000,"Enqueued":400,"QueueWaitUs":800}}`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseStatusz(strings.NewReader(`{"role":"coordinator","term":2,"elections":3,
		"kv":{"Puts":300,"Applies":295,"CacheHits":70,"CacheMisses":90},
		"repmem":{"TransportOps":3800,"Enqueued":1200,"QueueWaitUs":2400}}`))
	if err != nil {
		t.Fatal(err)
	}
	if before.Role != "coordinator" || before.Elections != 3 {
		t.Fatalf("header fields: %+v", before)
	}
	if d := counterDelta(before.KV, after.KV, "Puts"); d != 200 {
		t.Fatalf("Puts delta = %v, want 200", d)
	}
	hits := counterDelta(before.KV, after.KV, "CacheHits")
	misses := counterDelta(before.KV, after.KV, "CacheMisses")
	if r := hits / (hits + misses); r != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", r)
	}
	if q := counterDelta(before.Repmem, after.Repmem, "QueueWaitUs") / counterDelta(before.Repmem, after.Repmem, "Enqueued"); q != 2 {
		t.Fatalf("queue wait = %v µs, want 2", q)
	}
	// A new term's layers start from zero: no negative deltas.
	if d := counterDelta(after.KV, before.KV, "Puts"); d != 0 {
		t.Fatalf("backwards delta = %v, want 0", d)
	}
	// A follower has no kv block.
	f, err := parseStatusz(strings.NewReader(`{"role":"follower","elections":0}`))
	if err != nil || f.KV != nil {
		t.Fatalf("follower statusz: %+v, %v", f, err)
	}
}

func TestProcStatAndStatus(t *testing.T) {
	// The command field may hold spaces and parentheses.
	line := "4242 (sift d (x)) S 1 4242 4242 0 -1 4194560 10469 0 0 0 47 56 0 0 20 0 8 0 178581 1793998848 9324 18446744073709551615\n"
	cpu, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cpu-1.03) > 1e-9 {
		t.Fatalf("cpu = %v s, want 1.03 (47+56 ticks)", cpu)
	}
	if _, err := parseProcStat("4242 (short) S 1 2"); err == nil {
		t.Fatal("want an error for a truncated stat line")
	}
	status := "Name:\tsiftd\nVmPeak:\t 1751952 kB\nVmHWM:\t   37400 kB\nVmRSS:\t   20480 kB\nThreads:\t8\n"
	rss, peak, err := parseProcStatus(strings.NewReader(status))
	if err != nil {
		t.Fatal(err)
	}
	if rss != 20 || math.Abs(peak-36.5234375) > 1e-9 {
		t.Fatalf("rss %v MiB, peak %v MiB; want 20 and 36.52", rss, peak)
	}
	if _, _, err := parseProcStatus(strings.NewReader("Name:\tx\nVmRSS:\t1 kB\n")); err == nil {
		t.Fatal("want an error when VmHWM is missing")
	}
}

func TestProcSelf(t *testing.T) {
	if _, err := procCPU("self"); err != nil {
		t.Fatal(err)
	}
	if rss, peak, err := procRSS("self"); err != nil || rss <= 0 || peak < rss {
		t.Fatalf("self rss %v peak %v: %v", rss, peak, err)
	}
}

func TestEventPhases(t *testing.T) {
	evs, err := parseEvents(strings.NewReader(`[
		{"seq":1,"time":"2026-10-17T07:00:00.100Z","type":"election.campaign","node":"cpu2"},
		{"seq":2,"time":"2026-10-17T07:00:00.120Z","type":"election.won","node":"cpu2","term":1},
		{"seq":3,"time":"2026-10-17T07:00:00.300Z","type":"coordinator.promoted","node":"cpu2","term":1},
		{"seq":4,"time":"2026-10-17T07:00:05.000Z","type":"election.campaign","node":"cpu2"},
		{"seq":5,"time":"2026-10-17T07:00:05.021Z","type":"election.campaign","node":"cpu2"},
		{"seq":6,"time":"2026-10-17T07:00:05.030Z","type":"election.won","node":"cpu2","term":3},
		{"seq":7,"time":"2026-10-17T07:00:06.530Z","type":"coordinator.promoted","node":"cpu2","term":3}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	kill := time.Date(2026, 10, 17, 7, 0, 4, 990e6, time.UTC)
	won, ok1 := firstEvent(evs, "election.won", kill)
	promoted, ok2 := firstEvent(evs, "coordinator.promoted", kill)
	if !ok1 || !ok2 {
		t.Fatal("phase events after the kill not found")
	}
	if d := won.Sub(kill); d != 40*time.Millisecond {
		t.Fatalf("detect = %v, want 40ms", d)
	}
	if d := promoted.Sub(won); d != 1500*time.Millisecond {
		t.Fatalf("takeover = %v, want 1.5s", d)
	}
	if _, ok := firstEvent(evs, "coordinator.demoted", kill); ok {
		t.Fatal("found an event that is not there")
	}
}
