package bench

import (
	"fmt"
	"sort"
)

// Params sizes an experiment run. Quick keeps everything laptop-fast;
// Full widens the sweeps for report-quality output.
type Params struct {
	Full bool
	// Short shrinks every sweep to a CI smoke size: seconds, not minutes.
	// It wins over Full.
	Short bool
}

func (p Params) encodingSizes() []int {
	if p.Full {
		return []int{100, 1000, 10000, 100000, 1000000}
	}
	return []int{100, 10000, 250000}
}

func (p Params) nodeCounts() []int {
	if p.Full {
		return []int{2, 4, 8, 16, 32, 64}
	}
	return []int{4, 16, 64}
}

func (p Params) coherencyOps() int {
	if p.Full {
		return 2000
	}
	return 400
}

func (p Params) hybridKs() []int {
	if p.Full {
		return []int{1, 2, 4, 8, 16, 32}
	}
	return []int{1, 4, 16, 32}
}

func (p Params) pvmPayloads() []int {
	if p.Full {
		return []int{0, 128, 4096, 131072}
	}
	return []int{0, 4096, 131072}
}

func (p Params) pvmRounds() int {
	if p.Full {
		return 5000
	}
	return 1000
}

func (p Params) registrySizes() []int {
	if p.Full {
		return []int{10, 100, 1000, 5000}
	}
	return []int{10, 100, 1000}
}

func (p Params) discoveryCounts() []int {
	if p.Full {
		return []int{1, 8, 32}
	}
	return []int{1, 8}
}

func (p Params) localityN() int {
	if p.Full {
		return 300
	}
	return 150
}

func (p Params) localityJobs() int {
	if p.Full {
		return 20
	}
	return 8
}

func (p Params) telemetryReps() int {
	if p.Full {
		return 2_000_000
	}
	return 200_000
}

func (p Params) telemetryInvokeReps() int {
	if p.Full {
		return 200_000
	}
	return 20_000
}

// resilienceRates is the E13 fault-rate sweep.
func (p Params) resilienceRates() []float64 {
	if p.Short {
		return []float64{0, 0.1, 0.3}
	}
	return []float64{0, 0.1, 0.2, 0.3}
}

// resilienceCalls is the per-cell call count of the E13 sweep. The cap
// is modest because un-hedged latency faults cost real wall time.
func (p Params) resilienceCalls() int {
	if p.Short {
		return 80
	}
	if p.Full {
		return 1000
	}
	return 400
}

// resilienceOverheadReps sizes the E13b disabled-path measurement.
func (p Params) resilienceOverheadReps() int {
	if p.Short {
		return 20_000
	}
	if p.Full {
		return 2_000_000
	}
	return 200_000
}

// e18Ns is the replica-count sweep of the E18 time-to-serving curve.
func (p Params) e18Ns() []int {
	if p.Short {
		return []int{2, 8}
	}
	return []int{2, 8, 32}
}

// e18Kills is the number of recovery samples E18 takes.
func (p Params) e18Kills() int {
	if p.Short {
		return 3
	}
	if p.Full {
		return 10
	}
	return 5
}

// e19ArrayLen is the doubles count of the E19 transfer payload: 64 KiB
// on the wire, large enough that WAN serialisation dominates latency.
func (p Params) e19ArrayLen() int { return 8192 }

// e19WanCalls is the per-trial call count on the paced LAN/WAN links —
// modest because each WAN call costs real wall time by design.
func (p Params) e19WanCalls() int {
	if p.Short {
		return 2
	}
	if p.Full {
		return 8
	}
	return 4
}

// Run executes one experiment by ID. E1, E3, E11, E14, E16 and E17 are
// retired: the benchmark/ workloads and the committed BENCH_*.json
// records measure what they did (EXPERIMENTS.md points at each).
func Run(id string, p Params) (*Table, error) {
	switch id {
	case "E2":
		return E2Encoding(p.encodingSizes()), nil
	case "E4":
		return E4Deployment()
	case "E5":
		return E5Coherency(p.nodeCounts(), DefaultMixes(), p.coherencyOps()), nil
	case "E5b":
		return E5bHybridK(32, p.hybridKs(), p.coherencyOps()), nil
	case "E6":
		return E6Lookup(p.nodeCounts()), nil
	case "E7":
		return E7PVM(p.pvmPayloads(), p.pvmRounds())
	case "E8":
		return E8Registry(p.registrySizes())
	case "E9":
		return E9Locality(p.localityN(), p.localityJobs())
	case "E10":
		return E10Discovery(p.discoveryCounts())
	case "E12":
		return E12TelemetryOverhead(p.telemetryReps(), p.telemetryInvokeReps())
	case "E13":
		return E13FaultSweep(p.resilienceRates(), p.resilienceCalls())
	case "E13b":
		return E13bDisabledOverhead(p.resilienceOverheadReps())
	case "E15":
		return E15Metacity(p.e15SimClients(), p.e15SimOps(), p.e15Services(),
			p.e15RealClients(), p.e15RealCalls())
	case "E18":
		return E18Fleet(p.e18Ns(), p.e18Kills())
	case "E19":
		return E19WANPlane(p.e19ArrayLen(), p.e19WanCalls())
	}
	return nil, fmt.Errorf("bench: unknown experiment %q", id)
}

// IDs returns every experiment ID in order.
func IDs() []string {
	ids := []string{"E10", "E12", "E13", "E13b", "E15", "E18", "E19", "E2", "E4", "E5", "E5b", "E6", "E7", "E8", "E9"}
	sort.Strings(ids)
	return ids
}
