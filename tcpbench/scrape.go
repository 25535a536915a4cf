package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// Everything the benchmark knows about the program's layers it reads from
// outside: siftd's debug endpoints (/metrics, /statusz, /events) and the
// daemons' /proc entries. Nothing here reaches into the processes.

// metricsSample is one /metrics scrape: series name (with its label set, as
// printed) to value.
type metricsSample map[string]float64

// parseMetrics reads Prometheus text exposition format, keeping every
// sample line and skipping comments. A sample line is
// `name{labels} value [timestamp]`; the key is everything before the value.
func parseMetrics(r io.Reader) (metricsSample, error) {
	out := metricsSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// Label values may hold spaces, so split after the closing brace.
		cut := strings.LastIndexByte(line, '}')
		if cut < 0 {
			cut = strings.IndexByte(line, ' ')
		} else {
			cut++
		}
		if cut <= 0 || cut >= len(line) {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		name := line[:cut]
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value in %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// series names the sample of metric name with label set labels ("" for
// none), as the exposition format prints it.
func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// summaryMean returns the mean of a summary metric over the interval
// between two scrapes, from its _sum and _count deltas, and the number of
// observations in the interval. Quantile lines are cumulative since the
// process started, so only the sums can be windowed.
func summaryMean(before, after metricsSample, name, labels string) (mean float64, n float64) {
	sumK, cntK := series(name+"_sum", labels), series(name+"_count", labels)
	dc := after[cntK] - before[cntK]
	if dc <= 0 {
		return 0, 0
	}
	return (after[sumK] - before[sumK]) / dc, dc
}

// statusz is the part of siftd's /statusz document the benchmark reads.
// The kv and repmem blocks are the layers' Stats structs; they are absent
// while the node is not coordinator.
type statusz struct {
	NodeID     int                `json:"node_id"`
	Role       string             `json:"role"`
	Term       int                `json:"term"`
	Elections  uint64             `json:"elections"`
	Promotions uint64             `json:"promotions"`
	KV         map[string]float64 `json:"kv"`
	Repmem     map[string]float64 `json:"repmem"`
}

// parseStatusz decodes a /statusz document.
func parseStatusz(r io.Reader) (statusz, error) {
	var s statusz
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return s, fmt.Errorf("statusz: %w", err)
	}
	return s, nil
}

// counterDelta returns after[key]-before[key] for a /statusz stats block,
// or 0 if a counter went backwards (the block belongs to a new term's
// layers, which start from zero).
func counterDelta(before, after map[string]float64, key string) float64 {
	d := after[key] - before[key]
	if d < 0 {
		return 0
	}
	return d
}

// event is one entry of siftd's /events ring.
type event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	Node string    `json:"node"`
	Term int       `json:"term"`
}

// parseEvents decodes an /events document.
func parseEvents(r io.Reader) ([]event, error) {
	var evs []event
	if err := json.NewDecoder(r).Decode(&evs); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	return evs, nil
}

// firstEvent returns the time of the first event of type typ at or after
// since, and whether there was one.
func firstEvent(evs []event, typ string, since time.Time) (time.Time, bool) {
	for _, e := range evs {
		if e.Type == typ && !e.Time.Before(since) {
			return e.Time, true
		}
	}
	return time.Time{}, false
}

// httpClient bounds every scrape.
var httpClient = &http.Client{Timeout: 2 * time.Second}

// fetch GETs http://addr/path and hands the body to parse.
func fetch[T any](addr, path string, parse func(io.Reader) (T, error)) (T, error) {
	var zero T
	resp, err := httpClient.Get("http://" + addr + path)
	if err != nil {
		return zero, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return zero, fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return parse(resp.Body)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times. It is 100
// on every Linux architecture Go supports.
const clockTicks = 100

// parseProcStat returns utime+stime from a /proc/<pid>/stat line, in
// seconds. The command name (field 2) may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStat(line string) (float64, error) {
	cut := strings.LastIndexByte(line, ')')
	if cut < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", line)
	}
	f := strings.Fields(line[cut+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(ut+st) / clockTicks, nil
}

// parseProcStatus returns the current and peak resident set (VmRSS, VmHWM)
// from /proc/<pid>/status, in MiB.
func parseProcStatus(r io.Reader) (rssMB, peakMB float64, err error) {
	sc := bufio.NewScanner(r)
	found := 0
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || (k != "VmRSS" && k != "VmHWM") {
			continue
		}
		f := strings.Fields(v)
		if len(f) != 2 || f[1] != "kB" {
			return 0, 0, fmt.Errorf("proc status: malformed %s line %q", k, v)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc status %s: %w", k, err)
		}
		if k == "VmRSS" {
			rssMB = float64(kb) / 1024
		} else {
			peakMB = float64(kb) / 1024
		}
		found++
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("proc status: VmRSS/VmHWM missing")
	}
	return rssMB, peakMB, nil
}

// procCPU returns the CPU seconds pid has used ("self" for this process).
func procCPU(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// procRSS returns pid's current and peak resident set in MiB.
func procRSS(pid string) (rssMB, peakMB float64, err error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	return parseProcStatus(f)
}
