// Command perfbench is the repository's benchmark. It runs one named
// workload against the public API — chl.Build, Index, FlatIndex,
// BatchEngine, Server, Router and Graph — with inputs generated from a
// seed, checks every answer, and prints the workload's end-to-end
// metrics (or, with -trace 1, its per-layer metrics) as the last line
// of standard output:
//
//	go run . -workload point -seed 1 -seconds 10 -trace 0
//
// run.sh builds it inside the checkout and forwards its arguments.
// README.md describes the workloads, the metrics and the trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration // measured time of one pass
	trace   bool
	workers int // request goroutines, and connections per listener: nproc
	out     string
	log     func(format string, args ...any)
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	wrong             int // answers that disagreed with the oracle
	e2e               map[string]float64
	layer             map[string]float64
	spans             []Span
	fixtures          []fixture
}

// fixture describes one input for the stamp.
type fixture struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Labels   int64  `json:"labels,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports; BENCHMARK.json
// names the same set (perfbench_test.go keeps the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
}

// perLayer lists the metrics every traced run reports. A layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"setup.wall_s", "s"},
	{"e2e.p90_ms", "ms"},
	{"e2e.p99_ms", "ms"},
	{"e2e.ops_per_s", "1/s"},
	{"e2e.open_p50_ms", "ms"},
	{"e2e.open_p90_ms", "ms"},
	{"e2e.open_p99_ms", "ms"},
	{"graph.gen_s", "s"},
	{"order.road_s", "s"},
	{"order.sf_s", "s"},
	{"pll.seq_road_s", "s"},
	{"gll.speedup_vs_seq", "x"},
	{"gll.road.construct_s", "s"},
	{"gll.road.clean_s", "s"},
	{"gll.road.labels_cleaned", "count"},
	{"gll.road.dist_queries", "count"},
	{"gll.sf.construct_s", "s"},
	{"gll.sf.clean_s", "s"},
	{"plant.road.explored", "count"},
	{"plant.road.psi", "ratio"},
	{"plant.road.construct_s", "s"},
	{"dist.sf.plant_trees", "count"},
	{"dist.sf.switched_at_tree", "count"},
	{"dist.sf.bytes_sent", "bytes"},
	{"dist.sf.syncs", "count"},
	{"dist.sf.dist_queries", "count"},
	{"build.road_gll_s", "s"},
	{"build.road_plant_s", "s"},
	{"build.sf_gll_s", "s"},
	{"build.sf_hybrid_s", "s"},
	{"label.freeze_s", "s"},
	{"label.compress_s", "s"},
	{"label.packed_bytes", "bytes"},
	{"label.compressed_bytes", "bytes"},
	{"label.join_packed_ns", "ns"},
	{"label.join_compressed_ns", "ns"},
	{"label.matrix_row_us", "us"},
	{"engine.query_ns", "ns"},
	{"engine.cache_hit_ratio", "ratio"},
	{"serve.handler_us", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.loopback_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.max_rps", "1/s"},
	{"router.same_shard_us", "us"},
	{"router.cross_shard_us", "us"},
	{"router.batch_ms", "ms"},
	{"router.matrix_ms", "ms"},
	{"router.cache_hit_ratio", "ratio"},
	{"router.cross_share", "ratio"},
	{"router.shard_rpcs_per_req", "count"},
	{"router.shard_bytes_per_req", "bytes"},
	{"router.shard_rpc_self_us", "us"},
	{"router.batch_p50_ms", "ms"},
	{"router.batch_p99_ms", "ms"},
	{"router.matrix_p50_ms", "ms"},
	{"router.matrix_p99_ms", "ms"},
	{"delta.frozen_query_us", "us"},
	{"delta.corrected_query_us", "us"},
	{"delta.apply_ms", "ms"},
	{"delta.compact_ms", "ms"},
	{"delta.patched_read_share", "ratio"},
	{"delta.update_p50_ms", "ms"},
	{"delta.compact_p50_ms", "ms"},
	{"loadgen.lag_p99_us", "us"},
	{"loadgen.achieved_rps", "1/s"},
	{"trace.client_self_us", "us"},
	{"trace.handler_self_us", "us"},
	{"trace.shard_handler_us", "us"},
	{"trace.attributed_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(config) (*result, error){
	"build":   runBuild,
	"point":   runPoint,
	"cluster": runCluster,
	"update":  runUpdate,
}

func main() {
	var (
		name   = flag.String("workload", "", "workload to run: build, point, cluster or update")
		seed   = flag.Int64("seed", 1, "seed every input is generated from")
		secs   = flag.Int("seconds", 10, "measured seconds of one pass")
		traced = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		out    = flag.String("out", ".bench_build/perfbench", "directory for scratch files and traces")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || flag.NArg() != 0 || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload build|point|cluster|update, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*secs) * time.Second,
		trace:   *traced == 1,
		workers: runtime.NumCPU(),
		out:     *out,
		log: func(format string, args ...any) {
			fmt.Printf("%-8s %s\n", *name, fmt.Sprintf(format, args...))
		},
	}
	steal0, total0 := cpuSteal()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *name, err)
		os.Exit(2)
	}
	steal1, total1 := cpuSteal()

	st := stamp(*name, *seed, res.fixtures)
	if total1 > total0 {
		st["cpu_steal_pct"] = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	line, _ := json.Marshal(st)
	fmt.Printf("stamp    %s\n", line)

	defs, values := endToEnd, res.e2e
	if cfg.trace {
		defs, values = perLayer, res.layer
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		if err := writeTrace(path, st, res.spans, values); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(2)
		}
		cfg.log("trace written to %s (%d spans)", path, len(res.spans))
	}
	metrics, err := report(defs, values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	correct, failed := res.verdict()
	last, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": res.attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	fmt.Println(string(last))
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench %s: %d failed operations, %d wrong answers\n", *name, res.failed, res.wrong)
		os.Exit(1)
	}
}

// verdict says whether the run passed and how many operations failed.
// Under the shipped defaults no operation fails, so an error — a build
// that returned one, a request that was refused or broke off — fails
// the run as a wrong answer does. Open-loop requests dropped unsent at
// the drain limit are neither attempted nor failed.
func (r *result) verdict() (correct bool, failed int) {
	return r.failed == 0 && r.wrong == 0, r.failed + r.wrong
}

// report shapes values into the result line's metrics object. Every
// defined metric must be present and finite; a name outside defs is a
// bug in the workload.
func report(defs []metricDef, values map[string]float64) (map[string]any, error) {
	out := make(map[string]any, len(defs))
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	var extra []string
	for name := range values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %v", extra)
	}
	return out, nil
}

// newLayer returns a per-layer map with every metric at 0, the value a
// layer the workload bypasses reports.
func newLayer() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// stamp records what the result was measured on and with.
func stamp(workload string, seed int64, fixtures []fixture) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"caches":     cpuCaches(),
		"commit":     gitCommit(),
		"fixtures":   fixtures,
	}
}

// cpuSteal reads the machine's steal and total CPU ticks from
// /proc/stat: the share of CPU time the hypervisor gave to other guests
// while this process ran says how far its wall-clock figures can be
// trusted. Both are 0 where /proc/stat is missing.
func cpuSteal() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuCaches maps "L1d", "L2", "L3", ... to cpu0's cache sizes.
func cpuCaches() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		read := func(f string) string {
			b, _ := os.ReadFile(filepath.Join(d, f))
			return strings.TrimSpace(string(b))
		}
		name := "L" + read("level")
		if t := read("type"); t == "Data" {
			name += "d"
		} else if t == "Instruction" {
			name += "i"
		}
		out[name] = read("size")
	}
	return out
}

// gitCommit reads the checkout's HEAD commit without running git; a
// checkout that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
