package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs the workload k times, each in its own process with
// its own seed, and prints the median, quartiles and spread (quartile
// distance over the median) of every end-to-end metric: the evidence
// each metric's bound rests on.
func steadiness(name string, seed int64, seconds float64, k int, workdir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed+int64(i), 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0", "--workdir", workdir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		var rep report
		if err := json.Unmarshal(lastLine(out), &rep); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if !rep.Correct || rep.Failed > 0 {
			return fmt.Errorf("run %d: correct=%t failed=%d", i, rep.Correct, rep.Failed)
		}
		for m, v := range rep.Metrics {
			values[m] = append(values[m], v.Value)
			units[m] = v.Unit
		}
		fmt.Fprintf(os.Stderr, "run %d of %d: %s\n", i+1, k, lastLine(out))
	}
	names := make([]string, 0, len(values))
	for m := range values {
		names = append(names, m)
	}
	sort.Strings(names)
	type summary struct {
		Median, Q1, Q3, Spread float64
		Unit                   string
	}
	sums := map[string]summary{}
	fmt.Printf("%-28s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "spread")
	for _, m := range names {
		q1, med, q3 := quartiles(values[m])
		s := summary{Median: med, Q1: q1, Q3: q3, Spread: ratio(q3-q1, med), Unit: units[m]}
		sums[m] = s
		fmt.Printf("%-28s %12.6g %12.6g %12.6g %8.3f %s\n", m, med, q1, q3, s.Spread, s.Unit)
	}
	line, err := json.Marshal(sums)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the
// exclusive method), the rule the bounds are checked with.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
