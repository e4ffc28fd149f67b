// Command perfbench is SemTree's end-to-end benchmark. One invocation
// builds an index, drives one workload from a single process with at
// most two callers, checks every answer against a flat-scan oracle over
// the same FastMap embedding, and prints its metrics:
//
//	perfbench --workload serve-mix --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - serve-mix: 2 serve.Client callers over loopback to an in-process
//     serve.Server; 50k triples in 8 InProc partitions; Zipf-skewed
//     queries from a hot pool, 80% k-NN, 10% range, 10% exact re-rank.
//   - tcp-knn: 2 in-process Searcher callers; 20k triples in 4
//     partitions on the TCP fabric; every k=10 query distinct.
//   - churn: one writer inserting 60k new triples into a fresh
//     20k-triple, 8-partition InProc index while one reader runs
//     distinct k=10 queries; repeated in rounds until --seconds pass.
//
// Every loop is closed: a caller sends its next request only after the
// previous one returned. On a small machine an open loop's generator
// wake-up lateness rivals the service time, so it would measure the
// timer rather than SemTree.
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 the run measures half its time untraced and half with
// the tracing decorators on, and the last line carries the per-layer
// metrics. The lines before it are an environment record and a
// human-readable table with the sample count of every metric. Wrong
// answers make the exit code 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// workloads maps each workload name onto its runner.
var workloads = map[string]func(context.Context, config) (*report, error){
	"serve-mix": runServeMix,
	"tcp-knn":   runTCPKNN,
	"churn":     runChurn,
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: serve-mix, tcp-knn or churn")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", ".bench_build", "directory the span dump of a traced run is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (serve-mix, tcp-knn, churn), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := defaultConfig(*workload)
	cfg.Seed = *seed
	cfg.Duration = time.Duration(*seconds * float64(time.Second))
	cfg.Trace = *trace == 1

	printEnv(stdout, *workload, *seed, cfg.Trace)
	steal0, total0 := cpuTicks()
	rep, err := runner(ctx, cfg)
	steal1, total1 := cpuTicks()
	fmt.Fprintf(stdout, "env-end: cpu_probe=%.1f tcp_time_wait=%s steal_pct=%.2f\n",
		cpuProbe(), timeWait(), 100*float64(steal1-steal0)/float64(max(1, total1-total0)))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if cfg.Trace && len(rep.spans) > 0 {
		path, err := writeSpans(*out, *workload, *seed, rep.spans)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(rep.spans), path)
	}
	metrics := rep.e2e
	inconsistent := false
	if cfg.Trace {
		metrics = rep.layers
		e := rep.layers["bench.layer_sum_err_pct"].value
		inconsistent = e > layerSumTolerancePct
		verdict := "ok"
		if inconsistent {
			verdict = "EXCEEDED"
		}
		fmt.Fprintf(stdout, "layer sum check: at p99 of the worst request path, layer self times miss the client-observed span by %.3f%% (tolerance %.0f%%): %s\n",
			e, layerSumTolerancePct, verdict)
	}
	if err := printReport(stdout, rep, metrics); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, w := range rep.wrong {
		fmt.Fprintf(stderr, "perfbench: wrong answer: %s\n", w)
	}
	if inconsistent {
		fmt.Fprintf(stderr, "perfbench: the trace is inconsistent: layer self times do not add up to the request spans\n")
	}
	if len(rep.wrong) > 0 || inconsistent {
		return 1
	}
	return 0
}

// metric is one reported number with its unit and the number of
// samples behind it.
type metric struct {
	value   float64
	unit    string
	samples int
}

// report is one run's outcome.
type report struct {
	e2e      map[string]metric
	layers   layerSet
	attempts int
	failed   int      // operations that returned an error
	wrong    []string // answers that disagreed with the oracle (capped)
	wrongN   int
	spans    []span
	mu       sync.Mutex
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: newLayerSet()}
}

// mismatch records a wrong answer; it fails the operation too.
func (r *report) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrongN++
	if len(r.wrong) < 10 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// tableOnly lists metrics the table prints but the JSON line leaves
// out, because BENCHMARK.json fixes no bound for them. The p99s follow
// the hypervisor's steal on a shared VM: as it rose from under 1% to
// 6% of the CPU time, tcp-knn's insert_p99_ms went from 0.85 ms to
// 3.2 ms and churn's query_p99_ms from 0.39 ms to 0.61 ms, so no bound
// of at most 0.25 holds from run to run. Compare them with paired runs.
var tableOnly = map[string]bool{"insert_p99_ms": true, "query_p99_ms": true}

// printReport prints the metric table and, last, the JSON result line.
func printReport(w io.Writer, rep *report, metrics map[string]metric) error {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	failed := rep.failed + rep.wrongN
	ratio := 0.0
	if rep.attempts > 0 {
		ratio = float64(failed) / float64(rep.attempts)
	}
	fmt.Fprintf(w, "%-28s %14s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		m := metrics[n]
		fmt.Fprintf(w, "%-28s %14.6g %-6s %d\n", n, m.value, m.unit, m.samples)
	}
	fmt.Fprintf(w, "%-28s %14.6g %-6s %d\n", "failed_ratio", ratio, "ratio", rep.attempts)

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{rep.wrongN == 0, rep.attempts, failed, map[string]jm{}}
	for n, m := range metrics {
		if !tableOnly[n] {
			out.Metrics[n] = jm{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// printEnv prints the environment record: what differs between two
// runners shows up here as a difference, not as a regression.
func printEnv(w io.Writer, workload string, seed int64, trace bool) {
	fmt.Fprintf(w, "env: workload=%s seed=%d trace=%t nproc=%d GOMAXPROCS=%d go=%s os=%s/%s ip_local_port_range=%q tcp_tw_reuse=%q tcp_max_tw_buckets=%q tcp_time_wait=%s cpu_probe=%.1f\n",
		workload, seed, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		sysctl("/proc/sys/net/ipv4/ip_local_port_range"), sysctl("/proc/sys/net/ipv4/tcp_tw_reuse"),
		sysctl("/proc/sys/net/ipv4/tcp_max_tw_buckets"), timeWait(), cpuProbe())
}

// cpuTicks returns the machine's stolen and total CPU time so far, in
// clock ticks: time stolen by the hypervisor is time no program here
// could run.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// timeWait returns how many TCP sockets the kernel holds in TIME_WAIT.
func timeWait() string {
	b, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	for i, x := range f {
		if x == "tw" && i+1 < len(f) {
			return f[i+1]
		}
	}
	return "unknown"
}

var probeSink float64

// cpuProbe measures the machine's single-core speed as iterations per
// microsecond of a fixed floating-point loop over 100ms. It does not
// touch SemTree; two runs whose probes differ ran on machines, or in
// moments, of different speed.
func cpuProbe() float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < 100*time.Millisecond {
		x := 1.0
		for i := 0; i < 10000; i++ {
			x = x*1.0000001 + 0.5
		}
		probeSink += x
		n += 10000
	}
	return float64(n) / float64(time.Since(start).Microseconds())
}

func sysctl(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.Join(strings.Fields(string(b)), " ")
}
