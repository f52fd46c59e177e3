package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// runRepeat makes n full sets the way the acceptance procedure does: every
// workload in a fresh process, set i with seed+i, untraced. It then prints,
// per workload and end-to-end metric, the median, the quartiles and the
// spread (interquartile distance over the median), and returns 1 if any
// spread exceeds the metric's bound or any run failed. setup_s is exempt
// from the spread rule: it is held to its bound between sets only.
func runRepeat(n int, seed int64, seconds float64, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	type line struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per set
	raws := map[string]map[string][]float64{}   // the same, as measured
	status := 0
	for i := 0; i < n; i++ {
		for _, w := range workloadNames {
			cmd := exec.Command(self, "-workload", w, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", out)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: set %d %s: %v\n", i, w, err)
				status = 1
				continue
			}
			rows := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var l line
			if err := json.Unmarshal(rows[len(rows)-1], &l); err != nil || !l.Correct {
				fmt.Fprintf(os.Stderr, "bench: set %d %s: bad result line: %v\n", i, w, err)
				status = 1
				continue
			}
			if values[w] == nil {
				values[w], raws[w] = map[string][]float64{}, map[string][]float64{}
			}
			for name, m := range l.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			// The child's full report has the values as measured.
			var rep report
			if b, err := os.ReadFile(filepath.Join(out, "report.json")); err == nil && json.Unmarshal(b, &rep) == nil && len(rep.Workloads) == 1 {
				for name, v := range rep.Workloads[0].Raw {
					raws[w][name] = append(raws[w][name], v)
				}
			}
			fmt.Printf("set %d %s done\n", i, w)
		}
	}
	var table bytes.Buffer
	fmt.Fprintf(&table, "| workload | metric | unit | median | q1 | q3 | spread | bound | spread as measured |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			vs := values[w][d.Name]
			if len(vs) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(vs)
			spread := (q3 - q1) / math.Abs(q2)
			mark := ""
			if spread > d.Bound && d.Name != "setup_s" {
				mark, status = " EXCEEDS", 1
			}
			measured := "-"
			if rv := raws[w][d.Name]; len(rv) == len(vs) {
				r1, r2, r3 := quartiles(rv)
				measured = fmt.Sprintf("%.4f", (r3-r1)/math.Abs(r2))
			}
			fmt.Fprintf(&table, "| %s | %s | %s | %.6g | %.6g | %.6g | %.4f%s | %.2f | %s |\n", w, d.Name, d.Unit, q2, q1, q3, spread, mark, d.Bound, measured)
		}
	}
	os.Stdout.Write(table.Bytes())
	if err := os.WriteFile(filepath.Join(out, "repeat.md"), table.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return status
}

// quartiles are the three cut points Python's statistics.quantiles(v, n=4)
// returns (the exclusive method), which is what the acceptance procedure
// computes.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		j = max(1, min(j, n-1))
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
