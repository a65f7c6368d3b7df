// Command perfbench is the repository benchmark: seeded closed-loop
// request streams driven through the system's public entry points,
// reporting end-to-end metrics per workload, and, with --trace 1, a
// serial replay of the same requests through each layer's public
// functions — the rungs of the ladder retrieval kernel → serve.Service
// → wire/admit handler chain → qosd over loopback.
//
// Workloads (all at the Table 3 shape, 15 types × 10 impls × 10 attrs,
// five constraints per request):
//
//	unique_retrieve  retrieve-only, no request repeats, through the facade
//	hot_mixed        repeat-heavy retrieve/allocate/observe mix, learning on
//	qosd_loopback    retrieve/allocate JSON to a qosd subprocess on 127.0.0.1
//	                 (run by hand only; BENCHMARK.json leaves it out)
//
// Usage (run.sh builds this program and qosd first):
//
//	perfbench --workload hot_mixed --seed 3 --seconds 10 --trace 0 --qosd .bench_build/qosd
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A correctness violation
// prints correct=false and exits 1; a harness failure exits 2 without
// a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

// metricSpec names one reported metric.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a --trace 0 run reports on every workload.
var endToEnd = []metricSpec{
	{"throughput_rps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"ok_frac", "ratio"},
	{"allocs_per_op", "allocs/op"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a --trace 1 run reports on every workload.
var perLayer = []metricSpec{
	{"retrieval.walk_us_p50", "us"},
	{"retrieval.walkn_us_p50", "us"},
	{"retrieval.walks_per_op", "walks/op"},
	{"serve.call_us_p50", "us"},
	{"serve.self_us_p50", "us"},
	{"serve.token_hit_ratio", "ratio"},
	{"serve.dedup_hits", "count"},
	{"serve.mean_batch", "jobs"},
	{"serve.shed", "count"},
	{"alloc.place_us_p50", "us"},
	{"alloc.release_us_p50", "us"},
	{"alloc.refused", "count"},
	{"learn.observe_us_p50", "us"},
	{"learn.commit_us_p50", "us"},
	{"learn.commits", "count"},
	{"learn.stale_retries", "count"},
	{"wire.decode_us_p50", "us"},
	{"wire.encode_us_p50", "us"},
	{"admit.admit_us_p50", "us"},
	{"admit.rejected", "count"},
	{"qosd.rtt_self_us_p50", "us"},
	{"trace.overhead_frac", "ratio"},
}

// workloads are the workloads BENCHMARK.json lists.
var workloads = []string{"unique_retrieve", "hot_mixed"}

// byHand are workloads the program runs that BENCHMARK.json leaves
// out. On a shared 2-vCPU host qosd_loopback's latency_p99_us spreads
// from 0.07 to 0.6 of its median (IQR over seeds) depending on the
// neighbours' load, which is more than any bound may be. Every traced
// run still measures its layers (wire, admit, qosd round trip).
var byHand = []string{"qosd_loopback"}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	qosd     string
	clients  int // closed-loop clients: nproc
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 51

// ladderRequests is how many requests a traced run replays through
// every rung of the ladder.
const ladderRequests = 2000

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// violation marks a correctness failure of the program under test, as
// opposed to a failure of the harness or its environment.
type violation struct{ err error }

func (v *violation) Error() string { return "violation: " + v.err.Error() }
func (v *violation) Unwrap() error { return v.err }

func violated(format string, args ...any) error {
	return &violation{fmt.Errorf(format, args...)}
}

// report is what a workload run hands back: counts, the values of the
// metrics it measured, and the sample count behind each timing.
type report struct {
	tally
	values  map[string]float64
	samples map[string]int
	notes   []string // human-readable lines printed before the result
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: unique_retrieve, hot_mixed or qosd_loopback")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same request streams")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	fs.StringVar(&cfg.qosd, "qosd", ".bench_build/qosd", "qosd binary for the loopback rung")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	cfg.clients = runtime.NumCPU()
	all := slices.Concat(workloads, byHand)
	if !slices.Contains(all, cfg.workload) || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload one of %v, seconds positive, trace 0 or 1)\n", all)
		return 2
	}

	rep, err := runWorkload(cfg)
	var v *violation
	if err != nil && !errors.As(err, &v) {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s shape=%s seed=%d clients=%d seconds=%g trace=%v\n",
		cfg.workload, shapeKey(cfg.workload), cfg.seed, cfg.clients, cfg.seconds, cfg.trace)
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	res := result{Correct: err == nil, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if err == nil {
		for _, s := range specs {
			val, ok := rep.values[s.name]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: %s: metric %s not measured\n", cfg.workload, s.name)
				return 2
			}
			line := fmt.Sprintf("  %-24s %14.4f %-9s", s.name, val, s.unit)
			if n, ok := rep.samples[s.name]; ok {
				line += fmt.Sprintf(" n=%d", n)
			}
			fmt.Fprintln(stdout, line)
			res.Metrics[s.name] = metric{Value: val, Unit: s.unit}
		}
	} else {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
	}
	if res.Attempted < 1 {
		res.Attempted = 1 // the result format requires attempted ≥ 1; a run that issued nothing failed
		res.Correct = false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func shapeKey(w string) string {
	if w == "hot_mixed" {
		return tableThree.key(hotRepeat)
	}
	return tableThree.key(0)
}

func runWorkload(cfg config) (*report, error) {
	if cfg.workload == "qosd_loopback" {
		return runLoopback(cfg)
	}
	return runInproc(cfg)
}

// phaseTimes returns the warm-up before the timed interval (a tenth of
// the measured time, at most a second), the timed interval, and how
// many windows it is split into.
func phaseTimes(cfg config) (warm, timed time.Duration, windows int) {
	timed = time.Duration(cfg.seconds * float64(time.Second))
	windows = 1
	if cfg.trace {
		windows = traceWindows
	}
	return min(timed/10, time.Second), timed, windows
}

// opsNote formats a phase's op counts.
func opsNote(t tally) string {
	s := fmt.Sprintf("ops: attempted=%d failed=%d refused=%d", t.attempted, t.failed, t.refused)
	for k, n := range t.byKind {
		if n > 0 {
			s += fmt.Sprintf(" %s=%d", opNames[k], n)
		}
	}
	return s
}

// setLoop records a phase's end-to-end metrics.
func (r *report) setLoop(ph phase) {
	st := summarise(ph.recs, nil)
	r.tally = ph.tally
	r.values["throughput_rps"] = st.throughput
	r.values["latency_p50_us"] = st.p50
	r.values["latency_p99_us"] = st.p99
	r.values["ok_frac"] = 1 - float64(ph.failed)/float64(max(ph.attempted, 1))
	for _, n := range []string{"throughput_rps", "latency_p50_us", "latency_p99_us", "ok_frac"} {
		r.samples[n] = st.samples
	}
}

// setSetup records the median of the set-up times.
func (r *report) setSetup(times []time.Duration) {
	xs := make([]float64, len(times))
	for i, t := range times {
		xs[i] = t.Seconds()
	}
	r.values["setup_s"] = median(xs)
	r.samples["setup_s"] = len(xs)
}
