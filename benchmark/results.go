package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runRecord is one run of one workload in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Result   report `json:"result"`
}

// envInfo records where a result set was measured.
type envInfo struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

// resultSet is what -o writes and -compare reads.
type resultSet struct {
	Env  envInfo     `json:"env"`
	Runs []runRecord `json:"runs"`
}

func environment(window time.Duration, traced bool) envInfo {
	return envInfo{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		Seconds:    window.Seconds(),
		Traced:     traced,
	}
}

// commit names the checked-out commit, with "-dirty" when the tree has
// changes, or "unknown" outside a git checkout.
func commit() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(head))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(st)) > 0 {
		c += "-dirty"
	}
	return c
}

func (s resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read results: %w", err)
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse results %s: %w", path, err)
	}
	return &s, nil
}

// lastLine returns the last non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// runChildren runs every named workload repeat times, each in its own
// process, so that memory and garbage-collection numbers belong to one
// workload. Pass p uses seed+p. It writes the result set to outPath
// when given, prints one line per run and then one JSON line with the
// median of every metric per workload, and reports whether every run
// was correct.
func runChildren(sp *spec, names []string, seed int64, window time.Duration, traced bool, repeat int, spansPath, outPath string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, fmt.Errorf("find own executable: %w", err)
	}
	set := resultSet{Env: environment(window, traced)}
	for p := 0; p < repeat; p++ {
		for _, name := range names {
			s := seed + int64(p)
			args := []string{
				"-workload", name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.FormatFloat(window.Seconds(), 'f', -1, 64),
				"-trace", strconv.Itoa(btoi(traced)),
			}
			if spansPath != "" {
				ext := filepath.Ext(spansPath)
				args = append(args, "-spans", fmt.Sprintf("%s-%s-%d%s", strings.TrimSuffix(spansPath, ext), name, s, ext))
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			var rep report
			if jerr := json.Unmarshal(lastLine(stdout), &rep); jerr != nil {
				return false, fmt.Errorf("%s seed %d: %v (no result line: %v)", name, s, err, jerr)
			}
			var exitErr *exec.ExitError
			if err != nil && !errors.As(err, &exitErr) {
				return false, fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			set.Runs = append(set.Runs, runRecord{name, s, traced, rep})
			fmt.Printf("%s seed %d: correct %t, %d attempted, %d failed\n", name, s, rep.Correct, rep.Attempted, rep.Failed)
		}
	}
	if outPath != "" {
		if err := set.write(outPath); err != nil {
			return false, err
		}
	}
	total := report{Correct: true, Metrics: make(map[string]metric)}
	for _, name := range names {
		for metricName, vals := range set.values(name) {
			total.Metrics[name+"."+metricName] = metric{median(vals.values), vals.unit}
		}
	}
	for _, r := range set.Runs {
		total.Correct = total.Correct && r.Result.Correct
		total.Attempted += r.Result.Attempted
		total.Failed += r.Result.Failed
	}
	line, err := json.Marshal(total)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return total.Correct, nil
}

type series struct {
	unit   string
	values []float64
}

// values collects each metric's values over the set's runs of one
// workload.
func (s *resultSet) values(workload string) map[string]*series {
	out := make(map[string]*series)
	for _, r := range s.Runs {
		if r.Workload != workload {
			continue
		}
		for name, m := range r.Result.Metrics {
			if out[name] == nil {
				out[name] = &series{unit: m.Unit}
			}
			out[name].values = append(out[name].values, m.Value)
		}
	}
	return out
}

func (s *resultSet) workloads() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range s.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	sort.Strings(out)
	return out
}

// failRatio is failed ÷ attempted over the set's runs of a workload.
func (s *resultSet) failRatio(workload string) float64 {
	var failed, attempted int
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	return float64(failed) / float64(max(attempted, 1))
}

func compareFiles(sp *spec, basePath, headPath string, w io.Writer) (int, error) {
	base, err := readResultSet(basePath)
	if err != nil {
		return 0, err
	}
	head, err := readResultSet(headPath)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "base %s (%s, %d runs), head %s (%s, %d runs)\n",
		basePath, base.Env.Commit, len(base.Runs), headPath, head.Env.Commit, len(head.Runs))
	return compareSets(sp, base, head, w), nil
}

// verdict compares one metric of one workload, median against median.
// worse is the head's change in the metric's bad direction as a share
// of the base median. When either side's spread exceeds the bound the
// comparison cannot resolve the bound, unless every head run reads
// better than every base run.
func verdict(m specMetric, base, head []float64) (worse, sprd float64, v string) {
	mb, mh := median(base), median(head)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	worse = sign * (mh - mb) / mb
	sprd = max(spread(base), spread(head))
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && sign*(h-b) < 0
		}
	}
	switch {
	case sprd > m.Bound && allBetter:
		return worse, sprd, "better"
	case sprd > m.Bound:
		return worse, sprd, "unresolved"
	case worse > m.Bound:
		return worse, sprd, "REGRESSION"
	}
	return worse, sprd, "ok"
}

// compareSets prints one line per workload and end-to-end metric and
// returns the number of regressions. Any rise in the share of failed
// operations is a regression too.
func compareSets(sp *spec, base, head *resultSet, w io.Writer) int {
	regressions := 0
	fmt.Fprintf(w, "%-10s %-12s %12s %12s %8s %7s %6s  %s\n", "workload", "metric", "base", "head", "change", "spread", "bound", "verdict")
	for _, wl := range base.workloads() {
		bv, hv := base.values(wl), head.values(wl)
		for _, m := range sp.EndToEnd {
			b, h := bv[m.Name], hv[m.Name]
			if b == nil || h == nil {
				fmt.Fprintf(w, "%-10s %-12s missing from one side\n", wl, m.Name)
				regressions++
				continue
			}
			worse, sprd, v := verdict(m, b.values, h.values)
			if v == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(w, "%-10s %-12s %12.4f %12.4f %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				wl, m.Name, median(b.values), median(h.values), 100*worse, 100*sprd, 100*m.Bound, v)
		}
		fb, fh := base.failRatio(wl), head.failRatio(wl)
		v := "ok"
		if fh > fb {
			v = "REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-10s %-12s %12.4f %12.4f %8s %7s %6s  %s\n", wl, "fail_ratio", fb, fh, "", "", "0", v)
	}
	return regressions
}
