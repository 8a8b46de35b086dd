package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/model"
	"repro/internal/scenario"
)

func TestChurnTimelineReplays(t *testing.T) {
	a := ChurnScenario(7, 144, 20).JSON()
	b := ChurnScenario(7, 144, 20).JSON()
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different timeline JSON")
	}
	if bytes.Equal(a, ChurnScenario(8, 144, 20).JSON()) {
		t.Fatal("different seeds generated the same timeline")
	}
	if _, err := scenario.ParseJSON(a); err != nil {
		t.Fatalf("the timeline is not a valid scenario file: %v", err)
	}
}

func TestChurnTimelineShape(t *testing.T) {
	const nodes, rounds = 144, WarmupRounds + 20
	sc := ChurnScenario(3, nodes, 20)
	joins := map[model.Round]int{}
	departs := map[model.Round]int{}
	departed := map[model.NodeID]bool{}
	protected := map[model.NodeID]bool{}
	crashes, leaves := 0, 0
	var loss bool
	for _, e := range sc.Events {
		switch e.Action {
		case scenario.ActionJoin:
			joins[e.Round]++
			if e.Node <= nodes {
				t.Errorf("join of founding id %v", e.Node)
			}
		case scenario.ActionLeave, scenario.ActionCrash:
			departs[e.Round]++
			if departed[e.Node] {
				t.Errorf("%v departs twice", e.Node)
			}
			departed[e.Node] = true
			if e.Action == scenario.ActionCrash {
				crashes++
			} else {
				leaves++
			}
		case scenario.ActionSetLoss:
			loss = e.Rate > 0
		case scenario.ActionSetUploadCap, scenario.ActionSetBehavior:
			protected[e.Node] = true
		}
	}
	for r := model.Round(2); r <= rounds; r++ {
		if joins[r] != 2 || departs[r] != 2 {
			t.Errorf("round %v: %d joins, %d departures; want two each", r, joins[r], departs[r])
		}
	}
	if crashes != rounds-1 || leaves != rounds-1 {
		t.Errorf("%d leaves and %d crashes in %d rounds; want one of each per round", leaves, crashes, rounds-1)
	}
	if !loss || sc.Eviction == nil {
		t.Error("timeline lacks uniform loss or the eviction policy")
	}
	if len(protected) != churnCappedNodes+churnFreeRiderPair {
		t.Errorf("%d capped or free-riding nodes, want %d", len(protected), churnCappedNodes+churnFreeRiderPair)
	}
	for id := range protected {
		if departed[id] {
			t.Errorf("capped or free-riding node %v is scripted to depart", id)
		}
	}
}

// TestBenchmarkSpecMatches keeps BENCHMARK.json and the workloads and
// metrics the harness lists in step.
func TestBenchmarkSpecMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []MetricDef             `json:"end_to_end"`
		PerLayer  []MetricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	listed := Listed()
	if len(spec.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(listed))
	}
	for i, w := range spec.Workloads {
		if w.Name != listed[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, listed[i].Name)
		}
	}
	same := func(kind string, got, want []MetricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, EndToEnd)
	same("per_layer", spec.PerLayer, PerLayer())
}
