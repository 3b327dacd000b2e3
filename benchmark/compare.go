package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// contract is the part of BENCHMARK.json that -compare needs: each
// end-to-end metric's direction and the share of the baseline's median by
// which it may get worse before that counts as a regression.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// Verdicts of a comparison row.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

// minPairs is how many paired runs a gain must rest on.
const minPairs = 10

// verdict compares a candidate's runs with a baseline's for one metric on
// one workload. When either side's own run-to-run spread (quartile distance
// over median) is wider than the bound, a difference proves nothing and the
// row is unresolved, never "same". Otherwise a median worse by more than
// the bound is worse. A gain is held to the stricter rule a claim needs:
// the medians differ by more than the baseline's own spread, and the
// candidate wins at least nine tenths of at least minPairs pairs, run i of
// one file against run i of the other, ties counting for neither side.
func verdict(base, cand []float64, better string, bound float64) (delta float64, wins, pairs int, v string) {
	b, c := medianFloat(base), medianFloat(cand)
	if b == 0 {
		return 0, 0, 0, verdictUnresolved
	}
	delta = (c - b) / b
	sign := 1.0
	if better == lower {
		sign = -1
	}
	pairs = min(len(base), len(cand))
	for i := 0; i < pairs; i++ {
		if sign*(cand[i]-base[i]) > 0 {
			wins++
		}
	}
	switch gain := sign * delta; {
	case quartileSpread(base) > bound || quartileSpread(cand) > bound:
		v = verdictUnresolved
	case gain < -bound:
		v = verdictWorse
	case gain > quartileSpread(base) && pairs >= minPairs && wins*10 >= pairs*9:
		v = verdictBetter
	default:
		v = verdictSame
	}
	return delta, wins, pairs, v
}

func readResults(path string) (map[string]map[string][]float64, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// workload -> metric -> one value per untraced run
	out := map[string]map[string][]float64{}
	for _, run := range f.Runs {
		if run.Trace {
			continue // end-to-end metrics are never taken from a traced run
		}
		if out[run.Workload] == nil {
			out[run.Workload] = map[string][]float64{}
		}
		for _, m := range run.Metrics {
			out[run.Workload][m.Name] = append(out[run.Workload][m.Name], m.Value)
		}
	}
	return out, nil
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, each side's spread, the delta, how many pairs the candidate won,
// the bound and the verdict. It is the only comparison rule a later change
// may quote.
func compareFiles(w io.Writer, specPath, basePath, candPath string) error {
	blob, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec contract
	if err := json.Unmarshal(blob, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tspread\tn\tcand\tspread\tn\tdelta\twins\tbound\tverdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, c := base[wl.Name][m.Name], cand[wl.Name][m.Name]
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t-\t-\t%d\t-\t-\t%d\t-\t-\t%.0f%%\tmissing\n", wl.Name, m.Name, m.Unit, len(b), len(c), m.Bound*100)
				continue
			}
			delta, wins, pairs, v := verdict(b, c, m.Better, m.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.1f%%\t%d\t%.4f\t%.1f%%\t%d\t%+.1f%%\t%d/%d\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, medianFloat(b), quartileSpread(b)*100, len(b),
				medianFloat(c), quartileSpread(c)*100, len(c), delta*100, wins, pairs, m.Bound*100, v)
		}
	}
	return tw.Flush()
}
