package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestMetricListsMatchManifest keeps the metric sets every result line
// holds in step with the names BENCHMARK.json gives them.
func TestMetricListsMatchManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside benchmark/:", err)
	}
	var m struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, x := range ms {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(m.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, endToEnd = %v", got, endToEnd)
	}
	if got := names(m.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, perLayer = %v", got, perLayer)
	}
}
