package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	ca3dmm "repro"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// BENCHMARK.json and the tables in metrics.go and workloads.go must
// say the same thing, inside the limits the driver enforces.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%v\n%v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(bj.EndToEnd), len(bj.PerLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %+v is malformed", d)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the limits", w.Name)
		}
	}
}

// runShort runs one workload for o.seconds in one block and returns
// the printed lines.
func runShort(t *testing.T, o options) []string {
	t.Helper()
	o.seed, o.blocks = 1, 1
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(buf.String()), "\n")
}

// checkOutput asserts that every metric of defs is printed exactly
// once by name with its unit, that the last line is the driver's JSON
// object with exactly those metrics, finite, and that nothing failed.
func checkOutput(t *testing.T, name string, lines []string, defs []metricDef) {
	t.Helper()
	printed := map[string]int{}
	units := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) < 4 || f[0] != name {
			continue
		}
		printed[f[1]]++
		units[f[1]] = f[3]
	}
	var last struct {
		Correct   *bool            `json:"correct"`
		Attempted *int             `json:"attempted"`
		Failed    *int             `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	if last.Correct == nil || last.Attempted == nil || last.Failed == nil {
		t.Fatalf("%s: result object lacks a key: %s", name, lines[len(lines)-1])
	}
	if !*last.Correct || *last.Failed != 0 || *last.Attempted < 1 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d", name, *last.Correct, *last.Failed, *last.Attempted)
	}
	if printed["error_rate"] != 1 {
		t.Errorf("%s: error_rate printed %d times", name, printed["error_rate"])
	}
	delete(printed, "error_rate")
	for _, d := range defs {
		if printed[d.Name] != 1 {
			t.Errorf("%s: %s printed %d times", name, d.Name, printed[d.Name])
		}
		if units[d.Name] != d.Unit {
			t.Errorf("%s: %s printed with unit %q, want %q", name, d.Name, units[d.Name], d.Unit)
		}
		v, ok := last.Metrics[d.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
			t.Errorf("%s: %s in the result object is %+v (present %v)", name, d.Name, v, ok)
		}
		delete(printed, d.Name)
	}
	if len(printed) != 0 || len(last.Metrics) != len(defs) {
		t.Errorf("%s: names outside BENCHMARK.json: printed %v, %d metrics in the object for %d defined", name, printed, len(last.Metrics), len(defs))
	}
}

func TestUntracedPrintsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		lines := runShort(t, options{workload: w.name, seconds: 0.2, out: t.TempDir()})
		checkOutput(t, w.name, lines, endToEnd)
	}
}

func TestTracedPrintsEveryPerLayerMetricAndAValidTrace(t *testing.T) {
	const name = "small_calls"
	// The traced run gives each base block 14 % of its seconds: 0.2 s here.
	o := options{workload: name, trace: 1, seconds: 0.2 / 0.14, out: t.TempDir()}
	checkOutput(t, name, runShort(t, o), perLayer)
	f, err := os.Open(filepath.Join(o.out, "trace-"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := ca3dmm.ValidateChromeTrace(f)
	if err != nil || n == 0 {
		t.Errorf("trace file: %d events, %v", n, err)
	}
}

// A damaged C block must fail every operation of its block.
func TestCorruptedResultIsCounted(t *testing.T) {
	wl, err := findWorkload("small_calls")
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, seconds: 0.2, blocks: 1, corrupt: true}
	res, err := runOne(wl, 0, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d after corrupting C", res.Correct, res.Failed, res.Attempted)
	}
}
