package core

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// scenarioBytes renders sc back into the JSON scenario schema, every config
// in its declarative fabric form, so it can be parsed again.
func scenarioBytes(t *testing.T, sc *Scenario) []byte {
	t.Helper()
	f := scenarioFile{Requests: sc.Requests, Seed: &sc.Seed}
	for _, cfg := range sc.Configs {
		f.Configs = append(f.Configs, scenarioConfig{
			Label: cfg.Label, Fabric: cfg.Fabric, Mem: cfg.Mem.String(), Params: cfg.FabricParams,
			Clusters: cfg.Clusters, MSHRs: cfg.MSHRs, HubLatency: cfg.HubLatency,
		})
	}
	for _, w := range sc.Workloads {
		f.Workloads = append(f.Workloads, w.Name)
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("marshal accepted scenario: %v", err)
	}
	return b
}

// FuzzParseScenario feeds arbitrary bytes to the parser behind POST /v1/jobs
// and corona-sweep -config. Every input must either be rejected with an
// error or parse without panicking, and an accepted scenario must re-parse,
// from its own rendering, to the same matrix.
func FuzzParseScenario(f *testing.F) {
	example, err := os.ReadFile("../../examples/custom-fabric/scenario.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		example,
		[]byte(`{"configs": [{"preset": "LMesh/ECM"}]}`),
		[]byte(`{"configs": [{"preset": "XBar/OCM"}, {"preset": "HMesh/ECM", "label": "mesh"}], "workloads": ["Uniform", "FFT"], "requests": 128, "seed": 1}`),
		[]byte(`{"configs": [{"preset": "SWMR/OCM"}, {"fabric": "hmesh", "mem": "ECM", "hub_latency": 6, "mshrs": 32, "clusters": 64}]}`),
		[]byte(`{"configs": [{"fabric": "swmr", "params": {"recv_buffer": 32}}], "seed": 0, "requests": -5}`),
		[]byte(`{"configs": [{"preset": "XBar/OCM", "params": {}}]}`),
		[]byte(`{"configs": []}`),
		[]byte(`not json`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			if sc != nil {
				t.Fatalf("rejected scenario also returned %+v", sc)
			}
			return
		}
		if len(sc.Configs) == 0 || len(sc.Workloads) == 0 || sc.Requests <= 0 {
			t.Fatalf("accepted an empty matrix: %d configs x %d workloads, %d requests",
				len(sc.Configs), len(sc.Workloads), sc.Requests)
		}
		again, err := ParseScenario(scenarioBytes(t, sc))
		if err != nil {
			t.Fatalf("accepted scenario does not re-parse: %v", err)
		}
		if !reflect.DeepEqual(again, sc) {
			t.Fatalf("re-parsed scenario differs:\nfirst:  %+v\nsecond: %+v", sc, again)
		}
	})
}
