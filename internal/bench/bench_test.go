package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(cell, "x")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func parseDur(t *testing.T, cell string) time.Duration {
	t.Helper()
	d, err := time.ParseDuration(strings.Replace(cell, "µs", "us", 1))
	if err != nil {
		t.Fatalf("cell %q not a duration: %v", cell, err)
	}
	return d
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "T", Title: "demo", Note: "n", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	s := tb.String()
	for _, want := range []string{"== T: demo ==", "a ", "bb", "1 ", "--"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if FmtDur(500*time.Nanosecond) != "500ns" {
		t.Error(FmtDur(500 * time.Nanosecond))
	}
	if FmtDur(1500*time.Nanosecond) != "1.50µs" {
		t.Error(FmtDur(1500 * time.Nanosecond))
	}
	if FmtDur(2*time.Millisecond) != "2.00ms" {
		t.Error(FmtDur(2 * time.Millisecond))
	}
	if FmtDur(3*time.Second) != "3.00s" {
		t.Error(FmtDur(3 * time.Second))
	}
	if FmtBytes(512) != "512B" || FmtBytes(2048) != "2.0KiB" || FmtBytes(3<<20) != "3.0MiB" {
		t.Error("FmtBytes broken")
	}
	if FmtRatio(2.5) != "2.50x" || FmtInt(7) != "7" || FmtFloat(1.234) != "1.23" {
		t.Error("format helpers broken")
	}
	if FmtRate(2e6) != "2.0MB/s" {
		t.Error(FmtRate(2e6))
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	a := RandDoubles(100, 1)
	b := RandDoubles(100, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandDoubles not deterministic")
		}
	}
	m := RandMatrix(8, 2)
	if len(m) != 64 {
		t.Fatalf("matrix len = %d", len(m))
	}
	// Diagonal dominance.
	if m[0] < 8 {
		t.Fatalf("m[0,0] = %v, want boosted diagonal", m[0])
	}
}

func TestE2ShapeMatchesPaperClaim(t *testing.T) {
	tb := E2Encoding([]int{1000})
	// Rows: xdr, soap-base64, soap-hex, soap-elementwise. The claim:
	// every SOAP text encoding expands more than XDR binary.
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	exp := map[string]float64{}
	for _, row := range tb.Rows {
		exp[row[1]] = parseCell(t, row[3])
	}
	if !(exp["xdr"] < exp["soap-base64"] && exp["soap-base64"] < exp["soap-hex"]) {
		t.Fatalf("expansion order wrong: %v", exp)
	}
	if exp["soap-elementwise"] <= exp["soap-base64"] {
		t.Fatalf("elementwise should expand most among common cases: %v", exp)
	}
	if exp["xdr"] > 1.05 {
		t.Fatalf("xdr expansion = %v, want ~1.0", exp["xdr"])
	}
}

func TestE5ShapeMatchesPaperClaim(t *testing.T) {
	tb := E5Coherency([]int{16}, []Mix{{"90%upd", 0.9}, {"10%upd", 0.1}}, 300)
	// Index rows by (mix, strategy) -> msgs/op.
	msgs := map[string]float64{}
	for _, row := range tb.Rows {
		msgs[row[1]+"/"+row[2]] = parseCell(t, row[3])
	}
	// Update-heavy: decentralized must beat full-sync on traffic.
	if !(msgs["90%upd/decentralized"] < msgs["90%upd/full-sync"]) {
		t.Fatalf("update-heavy: %v", msgs)
	}
	// Query-heavy: full-sync must beat decentralized.
	if !(msgs["10%upd/full-sync"] < msgs["10%upd/decentralized"]) {
		t.Fatalf("query-heavy: %v", msgs)
	}
	// Hybrid sits between the extremes in both regimes.
	for _, mix := range []string{"90%upd", "10%upd"} {
		h := msgs[mix+"/hybrid-k4"]
		lo, hi := msgs[mix+"/full-sync"], msgs[mix+"/decentralized"]
		if lo > hi {
			lo, hi = hi, lo
		}
		if h < lo-0.01 || h > hi+0.01 {
			t.Fatalf("%s: hybrid %v outside [%v,%v]", mix, h, lo, hi)
		}
	}
}

func TestE6ShapeMatchesPaperClaim(t *testing.T) {
	tb := E6Lookup([]int{32})
	reg := map[string]float64{}
	disc := map[string]float64{}
	for _, row := range tb.Rows {
		reg[row[1]] = parseCell(t, row[2])
		disc[row[1]] = parseCell(t, row[4])
	}
	// Decentralized: free registration, expensive discovery.
	if reg["decentralized"] != 0 {
		t.Fatalf("decentralized reg msgs = %v", reg["decentralized"])
	}
	if disc["decentralized"] <= disc["centralized"] {
		t.Fatalf("decentralized discovery should be the most expensive: %v", disc)
	}
	// Centralized: constant small cost regardless of size.
	if reg["centralized"] != 2 || disc["centralized"] != 2 {
		t.Fatalf("centralized costs: %v %v", reg, disc)
	}
}

func TestE8ShapeIndexedBeatsScan(t *testing.T) {
	tb, err := E8Registry([]int{200})
	if err != nil {
		t.Fatal(err)
	}
	var byName, byQuery time.Duration
	for _, row := range tb.Rows {
		switch row[1] {
		case "byName (indexed)":
			byName = parseDur(t, row[2])
		case "byQuery (scan)":
			byQuery = parseDur(t, row[2])
		}
	}
	if byName == 0 || byQuery == 0 {
		t.Fatalf("missing rows:\n%s", tb)
	}
	if byName*10 > byQuery {
		t.Fatalf("indexed (%v) should be far cheaper than scan (%v)", byName, byQuery)
	}
}

func TestE4ShapeLightweightWins(t *testing.T) {
	tb, err := E4Deployment()
	if err != nil {
		t.Fatal(err)
	}
	costs := map[string]time.Duration{}
	for _, row := range tb.Rows {
		costs[row[0]] = parseDur(t, row[1])
	}
	if costs["harness2-lightweight"] >= costs["appserver-heavyweight"] {
		t.Fatalf("costs = %v", costs)
	}
}

func TestRunDispatch(t *testing.T) {
	if _, err := Run("E99", Params{}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
	if got := IDs(); len(got) != 15 || got[0] != "E10" {
		t.Fatalf("IDs = %v", got)
	}
	// E2 through the dispatcher with the quick params (fastest pure-CPU
	// experiment; the network ones run in the E2E test below).
	tb, err := Run("E2", Params{})
	if err != nil || tb.ID != "E2" {
		t.Fatalf("Run(E2) = %v, %v", tb, err)
	}
}

func TestE5bShapeKInterpolates(t *testing.T) {
	tb := E5bHybridK(16, []int{1, 16}, 300)
	msgs := map[string]float64{}
	for _, row := range tb.Rows {
		msgs[row[0]] = parseCell(t, row[3])
	}
	// k=1: no replication, all cost on queries; k=N: all cost on updates.
	// Under a 50/50 mix the totals differ, but k=1 must cost nothing on
	// updates — compare against a separate decentralized run instead:
	// here we just require both sweeps produced sane positive traffic and
	// that they differ (the poles behave differently).
	if msgs["1"] == msgs["16"] {
		t.Fatalf("k=1 and k=N should differ: %v", msgs)
	}
	for k, v := range msgs {
		if v < 0 {
			t.Fatalf("k=%s msgs/op = %v", k, v)
		}
	}
}

func TestE13ShapePoliciesRestoreAvailability(t *testing.T) {
	// One 20% fault-rate sweep: unprotected availability must crater while
	// every policy configuration rides through the same fault schedule.
	tb, err := E13FaultSweep([]float64{0.2}, 150)
	if err != nil {
		t.Fatal(err)
	}
	success := map[string]float64{}
	p99 := map[string]time.Duration{}
	for _, row := range tb.Rows {
		success[row[1]] = parseCell(t, strings.TrimSuffix(row[2], "%"))
		p99[row[1]] = parseDur(t, row[3])
	}
	if s := success["none"]; s > 90 {
		t.Fatalf("no-policy success = %.1f%%, want <= 90%%\n%s", s, tb)
	}
	for _, pol := range []string{"retry", "retry+breaker", "retry+breaker+hedge"} {
		if s := success[pol]; s < 99 {
			t.Fatalf("%s success = %.1f%%, want >= 99%%\n%s", pol, s, tb)
		}
	}
	// Hedging must beat the 10ms latency-fault tail that retry alone eats.
	if !raceEnabled && p99["retry+breaker+hedge"] >= p99["retry"] {
		t.Fatalf("hedged p99 %v should undercut retry-only p99 %v\n%s",
			p99["retry+breaker+hedge"], p99["retry"], tb)
	}
}

func TestE13bShapeDisabledPathFree(t *testing.T) {
	tb, err := E13bDisabledOverhead(50_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The delegation-overhead row: zero extra allocations is a hard
	// contract (timing is asserted loosely; CI machines vary).
	if got := tb.Rows[2][2]; got != "0" {
		t.Fatalf("delegation allocs/op = %q, want 0\n%s", got, tb)
	}
}

func TestNetworkExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("network experiments are slow")
	}
	// Small bespoke parameter sets keep this under a few seconds while
	// exercising every moving part end to end.
	if tb, err := E7PVM([]int{0, 1024}, 200); err != nil || len(tb.Rows) != 4 {
		t.Fatalf("E7: %v %v", tb, err)
	}
	if tb, err := E9Locality(64, 3); err != nil || len(tb.Rows) != 3 {
		t.Fatalf("E9: %v %v", tb, err)
	}
	if tb, err := E10Discovery([]int{2}); err != nil || len(tb.Rows) != 2 {
		t.Fatalf("E10: %v %v", tb, err)
	}
}
