package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// tiny is a run small enough for a test: two blocks of batches and of
// rounds, so traced runs see both traced and untraced blocks.
var tiny = sizes{batches: 64, rounds: 16, warmBatches: 4, warmRounds: 2}

// declared reads the metric names BENCHMARK.json lists in one section.
func declared(t *testing.T, section string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func TestTinyRunsPassAndEmitDeclaredMetrics(t *testing.T) {
	want := map[bool][]string{false: declared(t, "end_to_end"), true: declared(t, "per_layer")}
	for _, w := range []string{"fwd-small-cold", "fwd-mtu-hot", "ctrl"} {
		for _, trace := range []bool{false, true} {
			res, lines, err := measure(options{workload: w, seed: 3, seconds: 1, trace: trace}, plans[w], tiny, nil, nil)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed:\n%s", w, trace, res.Failed, res.Attempted, strings.Join(lines, "\n"))
			}
			var got []string
			for n, m := range res.Metrics {
				got = append(got, n)
				if m.Unit == "" {
					t.Errorf("%s trace=%v: metric %s has no unit", w, trace, n)
				}
			}
			sort.Strings(got)
			if !slices.Equal(got, want[trace]) {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", w, trace, got, want[trace])
			}
		}
	}
}

func TestCheckerReportsExactlyTheInjectedFaults(t *testing.T) {
	ff := &fwdFault{batch: int64(tiny.warmBatches) + 5}
	cf := &ctrlFault{round: int64(tiny.warmRounds) + 1}
	res, lines, err := measure(options{workload: "fwd-mtu-hot", seed: 4, seconds: 1}, plans["fwd-mtu-hot"], tiny, ff, cf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 2 {
		t.Fatalf("failed %d (correct=%v), want exactly the 2 injected faults:\n%s",
			res.Failed, res.Correct, strings.Join(lines, "\n"))
	}
	var fails []string
	for _, l := range lines {
		if strings.HasPrefix(l, "# FAIL ") {
			fails = append(fails, l)
		}
	}
	if len(fails) != 2 ||
		!strings.Contains(fails[0], "egress drop-bad-mac, want forward") ||
		!strings.Contains(fails[1], "receipt does not verify") {
		t.Fatalf("failure report does not name the injected faults:\n%s", strings.Join(fails, "\n"))
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	root := tr.add("op", -1, 1, 1, t0, t0.Add(100))
	tr.add("a", root, 1, 2, t0.Add(10), t0.Add(40))
	b := tr.add("b", root, 1, 1, t0.Add(50), t0.Add(90))
	tr.add("c", b, 1, 1, t0.Add(60), t0.Add(70))
	lt := tr.totals()
	if lt.selfNs["op"] != 30 || lt.selfNs["b"] != 30 || lt.selfNs["a"] != 30 {
		t.Fatalf("self times %v", lt.selfNs)
	}
	if got := lt.residual("op"); got != 0.3 {
		t.Fatalf("residual %v, want 0.3", got)
	}
	if got := lt.selfPerCall("a"); got != 15 {
		t.Fatalf("a per call %v, want 15", got)
	}
}

func TestParseArgs(t *testing.T) {
	if _, err := parseArgs([]string{"--workload", "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := parseArgs([]string{"--workload", "ctrl", "--trace", "2"}); err == nil {
		t.Error("--trace 2 accepted")
	}
	o, err := parseArgs([]string{"--workload", "ctrl", "--seed", "9", "--seconds", "3", "--trace", "1"})
	if err != nil || o.seed != 9 || o.seconds != 3 || !o.trace {
		t.Errorf("parsed %+v, %v", o, err)
	}
}
