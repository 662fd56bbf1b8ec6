package server

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// FuzzParseExtras feeds arbitrary submission bodies to the serving-layer
// field parser (timeout and cell selector) that runs on every POST /v1/jobs
// and on every journaled job the resume path replays. An input must either
// be rejected with an error or parse without panicking into a positive
// timeout (or none) and a selection of distinct in-range cells, and an
// accepted selection must re-parse, from its own rendering, to the same
// timeout and cells.
func FuzzParseExtras(f *testing.F) {
	example, err := os.ReadFile("../../examples/custom-fabric/scenario.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		body  []byte
		total uint16
	}{
		{example, 8},
		{[]byte(`{"configs": [{"preset": "XBar/OCM"}], "timeout": "90s", "cells": {"lo": 2, "hi": 7}}`), 15},
		{[]byte(`{"configs": [{"preset": "XBar/OCM"}, {"preset": "HMesh/ECM"}], "cells": {"list": [29, 0, 14]}}`), 30},
		{[]byte(`{"cells": {"list": []}}`), 4},
		{[]byte(`{"cells": {"lo": 3, "hi": 3}}`), 4},
		{[]byte(`{"cells": {"lo": 0, "list": [1]}}`), 4},
		{[]byte(`{"timeout": "-1s"}`), 1},
		{[]byte(`not json`), 0},
	} {
		f.Add(seed.body, seed.total)
	}
	f.Fuzz(func(t *testing.T, body []byte, total uint16) {
		n := int(total)
		timeout, subset, err := parseExtras(body, n)
		if err != nil {
			return
		}
		if timeout < 0 {
			t.Fatalf("accepted a negative timeout %v", timeout)
		}
		if subset != nil && len(subset) == 0 {
			t.Fatal("accepted an empty cell selection")
		}
		seen := make(map[int]bool, len(subset))
		for _, i := range subset {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("accepted cell %d: out of range [0,%d) or duplicated in %v", i, n, subset)
			}
			seen[i] = true
		}
		var extras submitExtras
		if timeout > 0 {
			extras.Timeout = timeout.String()
		}
		if subset != nil {
			extras.Cells = &cellRange{List: subset}
		}
		again, err := json.Marshal(extras)
		if err != nil {
			t.Fatal(err)
		}
		timeout2, subset2, err := parseExtras(again, n)
		if err != nil {
			t.Fatalf("accepted fields do not re-parse from %s: %v", again, err)
		}
		if timeout2 != timeout || !reflect.DeepEqual(subset2, subset) {
			t.Fatalf("re-parsed fields differ: timeout %v vs %v, cells %v vs %v", timeout2, timeout, subset2, subset)
		}
	})
}
