package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric tables in metrics.go are what the benchmark prints;
// BENCHMARK.json is what the benchmark is judged by. They must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("end_to_end has %d metrics, tables %d", len(doc.EndToEnd), len(endToEndSpecs))
	}
	for i, m := range endToEndSpecs {
		got := doc.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, table %+v", i, got, m)
		}
	}
	if len(doc.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("per_layer has %d metrics, tables %d", len(doc.PerLayer), len(perLayerSpecs))
	}
	for i, m := range perLayerSpecs {
		got := doc.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, table %+v", i, got, m)
		}
	}
	for _, wl := range doc.Workloads {
		if _, err := newWorkload(wl.Name); err != nil {
			t.Errorf("workload %q: %v", wl.Name, err)
		}
	}
}
