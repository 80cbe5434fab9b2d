package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which names what the
// benchmark reports, in step with the metrics and workloads this program
// actually prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []metric
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
	var setupBound, maxOther float64
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is below another metric's %v", setupBound, maxOther)
	}
}
