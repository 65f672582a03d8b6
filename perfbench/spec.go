package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark prints by: the
// declared metric names and units are the single list both the
// declaration and the output follow.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the checkout root (the working
// directory the benchmark runs in).
func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// selectMetrics picks the declared metrics out of the measured values, in
// the declared units, and names the declared metrics that were not
// measured.
func selectMetrics(decl []specMetric, values map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(decl))
	var missing []string
	for _, d := range decl {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{v, d.Unit}
	}
	return out, missing
}
