package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

func shortConfig(workload string, trace bool) config {
	return config{workload: workload, seed: 1, seconds: 0, trace: trace, sizes: short}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that each decision verified and every declared metric printed.
func TestShortRuns(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(shortConfig(name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d problems=%v",
					name, trace, res.Correct, res.Failed, res.Attempted, res.problems)
			}
			if len(res.warnings) != 0 {
				t.Errorf("%s trace=%v: coverage warnings %v", name, trace, res.warnings)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.name)
				}
			}
			if trace {
				checkLayerCoverage(t, name, res.Metrics)
			} else if r := res.Metrics["success_ratio"].Value; r != 1 {
				t.Errorf("%s: success_ratio %v, want 1", name, r)
			}
		}
	}
}

// checkLayerCoverage asserts that the engine and completion rows are
// non-zero on fanout-contended and zero on the sync workloads, which never
// reach those layers.
func checkLayerCoverage(t *testing.T, workload string, m map[string]metric) {
	t.Helper()
	for _, d := range perLayer {
		layer := d.name[:strings.IndexByte(d.name, '.')]
		if layer != "engine" && layer != "completion" || d.name == "engine.inflight_after_drain" {
			continue
		}
		v := m[d.name].Value
		if fan := workload == "fanout-contended"; fan && v <= 0 || !fan && v != 0 {
			t.Errorf("%s: %s = %v", workload, d.name, v)
		}
	}
	if workload == "fanout-contended" && m["handle.wait_us_per_decision"].Value <= 0 {
		t.Errorf("fanout-contended: no wait time")
	}
}

// TestOracleCatchesForgedDisagreement forges decisions in the records of a
// real fanout-contended pass and checks that the oracle reports them.
func TestOracleCatchesForgedDisagreement(t *testing.T) {
	w, err := newWorkload("fanout-contended", 1, short)
	if err != nil {
		t.Fatal(err)
	}
	log := &passLog{}
	p, err := runPass(w, log, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.verdict.failed != 0 {
		t.Fatalf("unforged pass failed: %+v", p.verdict)
	}
	// Every key's four contenders proposed distinct values; find a record
	// whose instance saw another proposal, and decide that one instead.
	recs := slices.Clone(log.recs)
	forged := false
	for i, r := range recs {
		for _, o := range recs {
			if o.key == r.key && o.inst == r.inst && o.prop != r.dec {
				recs[i].dec = o.prop
				forged = true
				break
			}
		}
		if forged {
			break
		}
	}
	if !forged {
		t.Fatal("no instance with two distinct proposals to forge")
	}
	if v := check(recs, fanK); v.violations != 1 || v.failed != 1 {
		t.Errorf("forged disagreement: %+v, want one violation", v)
	}
	recs = slices.Clone(log.recs)
	recs[0].dec = -1
	if v := check(recs, fanK); v.violations != 1 {
		t.Errorf("forged invalid decision: %+v, want one violation", v)
	}
	recs = slices.Clone(log.recs)
	recs[0].err = true
	if v := check(recs, fanK); v.failed != 1 || v.violations != 0 {
		t.Errorf("forged error: %+v, want one failure and no violation", v)
	}
}

// TestSameSeedSameWork checks that a seed fixes the inputs and the work:
// two runs of one seed decide the same number of times, to the same depth
// on every key, and allocate the same per decision.
func TestSameSeedSameWork(t *testing.T) {
	for _, name := range workloadNames {
		a, err := run(shortConfig(name, false))
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(shortConfig(name, false))
		if err != nil {
			t.Fatal(err)
		}
		if a.work != b.work || a.Attempted != b.Attempted {
			t.Errorf("%s: runs of one seed did %v (%d attempted) and %v (%d attempted)",
				name, a.work, a.Attempted, b.work, b.Attempted)
		}
		if name == "fanout-contended" {
			continue // contention decides how much the engine allocates
		}
		x, y := a.Metrics["alloc_bytes_per_decision"].Value, b.Metrics["alloc_bytes_per_decision"].Value
		if x < y*(1-allocTolerance) || x > y*(1+allocTolerance) {
			t.Errorf("%s: runs of one seed allocated %.1f and %.1f B/decision", name, x, y)
		}
	}
	same := func(s uint64) *keyedSync { return newKeyedSync(s, 64, 10, 0) }
	if a, b := same(7), same(7); !slices.Equal(a.seq, b.seq) || !slices.Equal(a.vals, b.vals) {
		t.Error("keyed-sync: one seed generated different inputs")
	}
	if a, b := same(7), same(8); slices.Equal(a.seq, b.seq) {
		t.Error("keyed-sync: two seeds generated the same key sequence")
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics the program runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []def
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
