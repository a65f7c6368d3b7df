package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"qosalloc/internal/casebase"
	"qosalloc/internal/retrieval"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {0.99, 3.97}, {1, 4},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample quantile = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty quantile is not NaN")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(m.name) || !unit.MatchString(m.unit) || seen[m.name] {
			t.Errorf("bad or repeated metric %q (unit %q)", m.name, m.unit)
		}
		seen[m.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, file []struct{ Name, Unit string }, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(file), len(prog))
			return
		}
		for i := range file {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					what, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
}

// TestUniqueGen checks that distinct indices give distinct, valid
// requests and the generator is a pure function of its seed.
func TestUniqueGen(t *testing.T) {
	cb, err := tableThree.caseBase()
	if err != nil {
		t.Fatal(err)
	}
	g1, err := newUniqueGen(cb, tableThree, 5)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := newUniqueGen(cb, tableThree, 5)
	sets := map[string]bool{}
	for _, tm := range g1.tmpls {
		key := fmt.Sprint(tm.typ, tm.defs)
		if sets[key] {
			t.Fatalf("two templates constrain type %d on the same attributes", tm.typ)
		}
		sets[key] = true
	}
	seen := map[string]bool{}
	for k := uint64(0); k < 20000; k++ {
		r := g1.request(k)
		if err := r.Validate(cb); err != nil {
			t.Fatalf("request %d invalid: %v", k, err)
		}
		if len(r.Constraints) != tableThree.Constraints {
			t.Fatalf("request %d has %d constraints", k, len(r.Constraints))
		}
		if canon := casebase.NewRequest(r.Type, r.Constraints...).EqualWeights(); !reflect.DeepEqual(canon, r) {
			t.Fatalf("request %d = %+v, not in canonical form %+v", k, r, canon)
		}
		sig := retrieval.Signature(r)
		if seen[sig] {
			t.Fatalf("request %d repeats an earlier one", k)
		}
		seen[sig] = true
		if retrieval.Signature(g2.request(k)) != sig {
			t.Fatalf("request %d differs between generators of the same seed", k)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks each run is correct and reports exactly its metric set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds qosd and runs every workload")
	}
	qosd := filepath.Join(t.TempDir(), "qosd")
	build := exec.Command("go", "build", "-o", qosd, "./cmd/qosd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build qosd: %v\n%s", err, out)
	}
	for _, w := range slices.Concat(workloads, byHand) {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "7", "--seconds", "1.5", "--trace", trace,
				"--qosd", qosd}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s\n%s", w, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not a result: %v", w, trace, err)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			var got, exp []string
			for n := range res.Metrics {
				got = append(got, n)
			}
			for _, m := range want {
				exp = append(exp, m.name)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if !res.Correct || res.Attempted < 1 || strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Errorf("%s trace=%s: correct=%v attempted=%d metrics %v, want %v",
					w, trace, res.Correct, res.Attempted, got, exp)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
