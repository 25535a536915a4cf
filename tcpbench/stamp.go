package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envStamp identifies the conditions a result was measured under. Results
// are comparable only when every field but Commit matches; Commit names
// the code measured.
type envStamp struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentStamp(root string) envStamp {
	return envStamp{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root),
	}
}

// sameEnv reports why a and b were not measured under the same conditions,
// or "" if they were.
func sameEnv(a, b envStamp) string {
	var diffs []string
	if a.Nproc != b.Nproc {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", a.Nproc, b.Nproc))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.GOARCH != b.GOARCH {
		diffs = append(diffs, fmt.Sprintf("goarch %s vs %s", a.GOARCH, b.GOARCH))
	}
	if a.GoVersion != b.GoVersion {
		diffs = append(diffs, fmt.Sprintf("go %s vs %s", a.GoVersion, b.GoVersion))
	}
	return strings.Join(diffs, ", ")
}

// commitOf returns the git commit of root, or, in a checkout that is not a
// git repository, "tree:" and a hash of every source file in it (build
// output under .bench_build excluded).
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck — unreadable entries are skipped
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && (name == ".bench_build" || name == ".git") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		if fh, err := os.Open(f); err == nil {
			io.Copy(h, fh) //nolint:errcheck — a file that vanishes mid-read changes the hash anyway
			fh.Close()
		}
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// result is the full record of one run, written beside the build output.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Stamp     envStamp          `json:"stamp"`
	Correct   bool              `json:"correct"`
	Notes     []string          `json:"notes,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// compareResults prints the median of every metric on each side of
// `compare A... vs B...`. It refuses sides whose environment stamps or
// workloads differ, since their numbers cannot be compared.
func compareResults(args []string, w io.Writer) error {
	cut := -1
	for i, a := range args {
		if a == "vs" {
			cut = i
		}
	}
	if cut <= 0 || cut == len(args)-1 {
		return fmt.Errorf("usage: compare a.json [a2.json ...] vs b.json [b2.json ...]")
	}
	load := func(paths []string) ([]result, error) {
		var rs []result
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r result
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			rs = append(rs, r)
		}
		return rs, nil
	}
	a, err := load(args[:cut])
	if err != nil {
		return err
	}
	b, err := load(args[cut+1:])
	if err != nil {
		return err
	}
	all := append(append([]result(nil), a...), b...)
	for _, r := range all[1:] {
		if d := sameEnv(all[0].Stamp, r.Stamp); d != "" {
			return fmt.Errorf("refusing to compare: results measured under different conditions (%s)", d)
		}
		if r.Workload != all[0].Workload || r.Trace != all[0].Trace || r.Seconds != all[0].Seconds {
			return fmt.Errorf("refusing to compare: mixed workloads or settings (%s/trace %d/%ds vs %s/trace %d/%ds)",
				all[0].Workload, all[0].Trace, all[0].Seconds, r.Workload, r.Trace, r.Seconds)
		}
	}
	for _, r := range all {
		if !r.Correct {
			return fmt.Errorf("refusing to compare: the run of seed %d failed its checks %v", r.Seed, r.Notes)
		}
	}
	names := map[string]string{}
	for _, r := range all {
		for k, m := range r.Metrics {
			names[k] = m.Unit
		}
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	side := func(rs []result, k string) float64 {
		var xs []float64
		for _, r := range rs {
			if m, ok := r.Metrics[k]; ok {
				xs = append(xs, m.Value)
			}
		}
		return median(xs)
	}
	fmt.Fprintf(w, "%s, %d vs %d runs; commits %s vs %s\n", all[0].Workload, len(a), len(b), a[0].Stamp.Commit, b[0].Stamp.Commit)
	for _, k := range keys {
		ma, mb := side(a, k), side(b, k)
		fmt.Fprintf(w, "  %-34s %12.4f %12.4f %-6s %+7.1f%%\n", k, ma, mb, names[k], 100*(mb-ma)/ma)
	}
	return nil
}
