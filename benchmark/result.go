package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// metric is one measured value in the one schema everything the benchmark
// writes uses.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"` // observations behind the value
	Better  string  `json:"better"`  // "lower" or "higher"
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	GitSHA    string   `json:"git_sha"`
	NProc     int      `json:"nproc"`
	Workers   int      `json:"workers"`
	GoVersion string   `json:"go_version"`
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"` // why Correct is false
	Metrics   []metric `json:"metrics"`
}

// resultFile is what -out appends to and -compare reads.
type resultFile struct {
	Runs []runResult `json:"runs"`
}

func newRunResult(workload string, seed int64, seconds int, trace bool) *runResult {
	return &runResult{
		GitSHA: gitSHA(), NProc: runtime.NumCPU(), Workers: workerCount(), GoVersion: runtime.Version(),
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Correct: true,
	}
}

// workerCount is W, the number of load-generating goroutines.
func workerCount() int { return min(runtime.NumCPU(), 4) }

// gitSHA is the commit the binary was built from, as the go tool stamped
// it; a checkout that is not a git repository gives "unknown".
func gitSHA() string {
	sha, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		sha += "+dirty"
	}
	return sha
}

func (r *runResult) add(name string, value float64, samples int) {
	def, ok := catalogue[name]
	if !ok {
		panic("metric not in catalogue: " + name)
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: def.unit, Value: value, Samples: samples, Better: def.better})
}

// problem records a failed correctness check.
func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// print writes every metric by name with its unit, for people.
func (r *runResult) print(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d seconds=%d %s  (git %s, nproc %d, W %d, %s)\n",
		r.Workload, r.Seed, r.Seconds, mode, r.GitSHA, r.NProc, r.Workers, r.GoVersion)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-34s %14.4f %-8s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

// contractLine is the single JSON object the standing benchmark contract
// wants as the last line of standard output.
func (r *runResult) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN or Inf can do this, and add's callers never pass them
	}
	return string(blob)
}

// appendRun adds the run to the result file at path, creating it if needed.
func appendRun(path string, r *runResult) error {
	var f resultFile
	blob, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(blob, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	f.Runs = append(f.Runs, *r)
	if blob, err = json.MarshalIndent(f, "", " "); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the value is set by a handful of outliers.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of the samples by the
// nearest-rank rule, and whether at least minBeyond samples lie beyond it.
// It sorts its argument.
func percentile(samples []int64, q float64) (int64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(float64(n)*q-1e-9)) - 1 // the epsilon absorbs 1000*0.99 = 990.0000000000001
	rank = max(0, min(rank, n-1))
	return samples[rank], n-1-rank >= minBeyond
}

// p99 is the 99th percentile, or 0 when too few samples lie beyond it.
func p99(samples []int64) float64 {
	v, ok := percentile(samples, 0.99)
	if !ok {
		return 0
	}
	return float64(v)
}

func median(samples []int64) float64 {
	v, _ := percentile(samples, 0.5)
	return float64(v)
}

// medianFloat is the median of a few floats (even counts average the two
// middle values, as Python's statistics.median does).
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, quartiles as Python's statistics.quantiles(v, n=4)
// (the "exclusive" method) gives them. Fewer than two values have no spread.
func quartileSpread(v []float64) float64 {
	n := len(v)
	med := medianFloat(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile
		pos := float64(k) * float64(n+1) / 4
		j := max(1, min(int(pos), n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	spread := (q(3) - q(1)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}
