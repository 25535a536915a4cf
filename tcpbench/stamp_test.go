package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSameEnv(t *testing.T) {
	a := envStamp{Nproc: 2, GOMAXPROCS: 2, GOARCH: "amd64", GoVersion: "go1.24.0", Commit: "x"}
	b := a
	b.Commit = "y"
	if d := sameEnv(a, b); d != "" {
		t.Fatalf("commits differ only: %q", d)
	}
	b.GOMAXPROCS = 1
	if d := sameEnv(a, b); !strings.Contains(d, "GOMAXPROCS") {
		t.Fatalf("GOMAXPROCS difference not reported: %q", d)
	}
}

func writeResult(t *testing.T, dir, name string, r result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompareRefusesDifferentStamps(t *testing.T) {
	dir := t.TempDir()
	env := envStamp{Nproc: 2, GOMAXPROCS: 2, GOARCH: "amd64", GoVersion: "go1.24.0", Commit: "a"}
	r := result{Workload: "put", Seconds: 24, Stamp: env, Correct: true,
		Metrics: map[string]metric{"p50_ms": {Value: 1, Unit: "ms"}}}
	a := writeResult(t, dir, "a.json", r)
	r.Stamp.Commit = "b"
	r.Metrics = map[string]metric{"p50_ms": {Value: 2, Unit: "ms"}}
	b := writeResult(t, dir, "b.json", r)
	var out strings.Builder
	if err := compareResults([]string{a, "vs", b}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "+100.0%") {
		t.Fatalf("comparison output: %s", out.String())
	}
	r.Stamp.Nproc = 1
	c := writeResult(t, dir, "c.json", r)
	if err := compareResults([]string{a, "vs", c}, &out); err == nil || !strings.Contains(err.Error(), "nproc") {
		t.Fatalf("differing nproc compared: %v", err)
	}
	r.Stamp.Nproc, r.Workload = 2, "read-heavy"
	d := writeResult(t, dir, "d.json", r)
	if err := compareResults([]string{a, "vs", d}, &out); err == nil {
		t.Fatal("differing workloads compared")
	}
	r.Workload, r.Trace = "put", 1
	e := writeResult(t, dir, "e.json", r)
	if err := compareResults([]string{a, "vs", e}, &out); err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("differing trace modes compared: %v", err)
	}
}

func TestCommitOfTreeWithoutGit(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte("package a"), 0o644); err != nil {
		t.Fatal(err)
	}
	c1 := commitOf(dir)
	if err := os.MkdirAll(filepath.Join(dir, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".bench_build", "x"), []byte("build output"), 0o644); err != nil {
		t.Fatal(err)
	}
	if c2 := commitOf(dir); c2 != c1 || !strings.HasPrefix(c1, "tree:") {
		t.Fatalf("build output changed the tree hash: %s vs %s", c1, c2)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte("package b"), 0o644); err != nil {
		t.Fatal(err)
	}
	if c3 := commitOf(dir); c3 == c1 {
		t.Fatal("a source change left the tree hash alone")
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, math.Inf(1)}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := quantile(xs, 0.99); !math.IsInf(q, 1) {
		t.Fatalf("p99 with a failed op = %v, want +Inf", q)
	}
	if q := quantile(xs[:4], 0.25); q != 1.75 {
		t.Fatalf("p25 = %v, want 1.75", q)
	}
	if p, n := tailPercentile(10000); p != 99.9 || n != 10 {
		t.Fatalf("tail of 10000 = p%v with %d beyond", p, n)
	}
	if p, n := tailPercentile(1500); p != 99 || n != 15 {
		t.Fatalf("tail of 1500 = p%v with %d beyond", p, n)
	}
}
