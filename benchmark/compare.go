package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readRecord(path string) (*runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := &runRecord{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// worsening is how much worse b is than a as a share of a: positive when
// the metric moved against its better direction.
func worsening(def metricDef, a, b float64) float64 {
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is a metric's inter-quartile distance over its windows as a share
// of its median: the run's own noise.
func spread(m measured) float64 {
	if m.Quartiles == nil || m.Value == 0 {
		return 0
	}
	return (m.Quartiles[2] - m.Quartiles[0]) / m.Value
}

const (
	verdictOK         = "ok"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
)

// judge compares one end-to-end metric of one workload. A difference is
// only read when both runs were steadier than the bound; otherwise the
// pair is unresolved, which is neither a pass nor a regression.
func judge(def metricDef, a, b measured) (float64, string) {
	worse := worsening(def, a.Value, b.Value)
	switch {
	case spread(a) > def.Bound || spread(b) > def.Bound:
		return worse, verdictUnresolved
	case worse > def.Bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// compareRecords prints, one row per workload, how each end-to-end metric
// of b stands against a and its bound. It returns an error, so the command
// exits non-zero, when a metric regressed or fail_ratio rose.
func compareRecords(pathA, pathB string) error {
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s seed %d rev %s    b: %s seed %d rev %s\n", pathA, a.Seed, a.GitRev, pathB, b.Seed, b.GitRev)
	fmt.Printf("%-15s", "workload")
	for _, def := range endToEnd {
		fmt.Printf(" %-28s", fmt.Sprintf("%s (bound %.2f)", def.Name, def.Bound))
	}
	fmt.Printf(" %s\n", "fail_ratio")

	bad := 0
	for _, wa := range a.Workloads {
		var wb *recordedWorkload
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			return fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		fmt.Printf("%-15s", wa.Name)
		for _, def := range endToEnd {
			worse, verdict := judge(def, wa.EndToEnd.Metrics[def.Name], wb.EndToEnd.Metrics[def.Name])
			if verdict == verdictRegressed {
				bad++
			}
			fmt.Printf(" %-28s", fmt.Sprintf("%+.1f%% worse: %s", 100*worse, verdict))
		}
		verdict := verdictOK
		if wb.FailRatio > wa.FailRatio {
			verdict = "ROSE"
			bad++
		}
		fmt.Printf(" %.6f -> %.6f: %s\n", wa.FailRatio, wb.FailRatio, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions from %s to %s", bad, pathA, pathB)
	}
	return nil
}
