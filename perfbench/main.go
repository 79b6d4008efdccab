// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against an embedded taurus deployment, checks every answer,
// and prints its metrics; the last line of its output is one JSON object.
//
//	perfbench --workload oltp_read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload once untraced and once with stage tracing, and prints the
// per-layer metrics of the traced run. README.md lists the workloads and
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"taurus"
)

// config sizes a run. The command line sets Seed, Seconds and Trace; the
// rest are the benchmark's fixed sizes (tests shrink them).
type config struct {
	Seed    int64
	Seconds float64
	Trace   bool

	// Setups is how many times a run sets its deployment up; setup_s is
	// the median, and the last deployment is the one measured.
	Setups int
	// KVRows is the kv table size of oltp_read and the starting size of
	// oltp_write. RangeLen is the key count of an oltp_read range read.
	KVRows   int
	RangeLen int
	// WarmOps is the untimed oltp_read operations run after setup.
	WarmOps int
	// WritesPerSecond fixes the oltp_write insert count at
	// WritesPerSecond × Seconds, so the table ends at the same size
	// whatever the program's speed.
	WritesPerSecond int
	WriteClients    int
	CheckpointEvery int
	// SF is the olap_scan TPC-H scale factor.
	SF float64
	// WorkDir holds the oltp_write data directories.
	WorkDir string
}

func defaultConfig() config {
	return config{
		Setups:          3,
		KVRows:          20000,
		RangeLen:        50,
		WarmOps:         200,
		WritesPerSecond: 80,
		WriteClients:    2,
		CheckpointEvery: 200,
		SF:              0.005,
		WorkDir:         ".bench_build",
	}
}

func (c *config) writeOps() int { return int(float64(c.WritesPerSecond) * c.Seconds) }

// instance is one set-up deployment of a workload.
type instance interface {
	DB() *taurus.DB
	// clients is how many closed-loop clients the workload runs; the
	// host-speed calibration runs one thread per client.
	clients() int
	// measure runs the closed-loop clients for the given share of the
	// run and returns each operation's outcome and the window's length.
	measure(share float64, sp *spans) (*opLog, time.Duration)
	notes() []string
	// finish runs the post-run checks and closes the deployment. It
	// returns the workload-side counts of the measured windows (rows
	// returned, executor work, checkpoints, stored bytes).
	finish(sp *spans) (map[string]float64, error)
}

// opener sets a deployment up and returns the time it took, warm-up
// included. keep marks the deployment that will be measured: only it
// computes the reference answers. A non-nil stages traces statements.
type opener func(cfg *config, stages *stageLog, keep bool) (instance, time.Duration, error)

var workloads = map[string]opener{
	"oltp_read":  openKVRead,
	"oltp_write": openKVWrite,
	"olap_scan":  openTPCH,
}

// errWrong marks a wrong answer, as opposed to an operation that failed.
var errWrong = errors.New("wrong answer")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

func main() {
	cfg := defaultConfig()
	name := flag.String("workload", "", "oltp_read, oltp_write or olap_scan")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	cfg.Trace = *trace == 1
	open, ok := workloads[*name]
	if !ok || cfg.Seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload oltp_read|oltp_write|olap_scan --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d\n",
		*name, cfg.Seed, cfg.Seconds, *trace, runtime.GOMAXPROCS(0))
	out, err := run(&cfg, open)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range out.Notes {
		fmt.Println(n)
	}
	for _, m := range out.Metrics {
		fmt.Printf("  %-38s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	line, err := resultJSON(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// resultJSON renders the result line: correct, attempted, failed and each
// metric's value and unit.
func resultJSON(out *outcome) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.Correct, out.Attempted, out.Failed, map[string]value{}}
	for _, m := range out.Metrics {
		res.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(res)
}

// windowSlices is how many slices an untraced window is measured in.
const windowSlices = 10

// run sets up and measures one workload. A returned error means the run
// could not be made at all; wrong answers are reported in the outcome.
func run(cfg *config, open opener) (*outcome, error) {
	if cfg.Trace {
		return runTraced(cfg, open)
	}
	procs := runtime.GOMAXPROCS(0)
	cal, err := newCalibration(procs)
	if err != nil {
		return nil, err
	}
	defer cal.close()
	// calibrate waits until the program is idle and runs a burst with
	// one thread per client.
	calibrate := func(in instance) error {
		if err := in.DB().Engine().SAL().Flush(); err != nil {
			return fmt.Errorf("flush: %w", err)
		}
		cal.burst(min(in.clients(), procs))
		return nil
	}
	var setups []float64
	var inst instance
	for i := 0; i < cfg.Setups; i++ {
		keep := i == cfg.Setups-1
		in, d, err := open(cfg, nil, keep)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if err := calibrate(in); err != nil {
			return nil, err
		}
		if keep {
			inst = in
			break
		}
		if _, err := in.finish(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		runtime.GC()
	}
	runtime.GC()
	// The window is measured in slices with a calibration burst after
	// each, so the calibration samples the host over the same time.
	l := &opLog{}
	var window time.Duration
	var cpu float64
	for i := 0; i < windowSlices; i++ {
		c0 := cpuSeconds()
		sl, w := inst.measure(1.0/windowSlices, nil)
		cpu += cpuSeconds() - c0
		l.merge(sl)
		window += w
		if err := calibrate(inst); err != nil {
			return nil, err
		}
	}
	cal.close()
	heap := liveHeapMB()
	notes := inst.notes()
	_, ferr := inst.finish(nil)
	out := newOutcome(l, ferr)
	raw := []metric{
		{"setup_s", median(setups), "s"},
		{"throughput_ops_s", ratio(float64(len(l.lat)), window.Seconds()), "ops/s"},
		{"latency_p50_ms", l.quantile(0.50, window), "ms"},
		{"latency_p90_ms", l.quantile(0.90, window), "ms"},
		{"cpu_ms_per_op", ratio(1000*cpu, float64(l.attempted)), "ms"},
	}
	out.Notes = append(append(notes, out.Notes...),
		fmt.Sprintf("latency samples=%d window=%.3f s setups=%v s", l.attempted, window.Seconds(), setups),
		fmt.Sprintf("host speed: wall scale %.4f, cpu scale %.4f; unscaled:", cal.wallScale(), cal.cpuScale()))
	for _, m := range raw {
		out.Notes = append(out.Notes, fmt.Sprintf("  %-38s %14.4f %s", m.Name, m.Value, m.Unit))
	}
	ws, cs := cal.wallScale(), cal.cpuScale()
	out.Metrics = []metric{
		{"setup_s", raw[0].Value * ws, "s"},
		{"throughput_ops_s", raw[1].Value / ws, "ops/s"},
		{"latency_p50_ms", raw[2].Value * ws, "ms"},
		{"latency_p90_ms", raw[3].Value * ws, "ms"},
		{"cpu_ms_per_op", raw[4].Value * cs, "ms"},
		{"live_heap_mb", heap, "MB"},
	}
	return out, nil
}

// newOutcome turns a window's operations and the post-run check into the
// reported totals. Any wrong answer or failed check makes the run
// incorrect.
func newOutcome(l *opLog, checkErr error) *outcome {
	out := &outcome{Correct: l.wrong == 0 && checkErr == nil, Attempted: l.attempted, Failed: l.failed}
	if l.firstErr != "" {
		out.Notes = append(out.Notes, "first failure: "+l.firstErr)
	}
	if checkErr != nil {
		out.Notes = append(out.Notes, "post-run check failed: "+checkErr.Error())
	}
	return out
}

// runTraced measures half the run on an untraced deployment and half on a
// traced one, and reports the traced half's per-layer metrics.
func runTraced(cfg *config, open opener) (*outcome, error) {
	plain, _, err := open(cfg, nil, true)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	lu, _ := plain.measure(0.5, nil)
	_, plainErr := plain.finish(nil)
	runtime.GC()

	stages := newStageLog()
	sp := newSpans()
	inst, _, err := open(cfg, stages, true)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	db := inst.DB()
	runtime.GC()
	before := counters(db)
	stages.arm()
	l, window := inst.measure(0.5, sp)
	d := delta(before, counters(db))
	notes := inst.notes()
	end, ferr := inst.finish(sp)
	for k, v := range end {
		d[k] = v
	}
	// Completed operations of the traced window: on oltp_write the
	// acknowledged inserts, without the set-up's warm-up ones.
	d["commits"] = float64(len(l.lat))
	out := newOutcome(l, errors.Join(plainErr, ferr))
	if lu.wrong > 0 {
		out.Correct = false
	}
	out.Attempted += lu.attempted
	out.Failed += lu.failed
	out.Notes = append(append(notes, out.Notes...), fmt.Sprintf("traced window: samples=%d window=%.3f s; untraced samples=%d",
		l.attempted, window.Seconds(), lu.attempted))
	out.Metrics = layerMetrics(d, float64(l.attempted), stages, sp, ratio(l.meanMs(), lu.meanMs()))
	return out, nil
}

// layerMetrics derives the per-layer metrics from the traced window's
// counter deltas d, its statement stages and the benchmark's spans. ops is
// the window's statement or query count.
func layerMetrics(d map[string]float64, ops float64, st *stageLog, sp *spans, overhead float64) []metric {
	per := func(k string) float64 { return ratio(d[k], ops) }
	perMs := func(k string) float64 { return ratio(1000*d[k], ops) }
	stage := func(name string) float64 { return st.msPerOp(name, int(ops)) }
	spanMs := func(name string) float64 {
		t, _ := sp.sum(name)
		return ratio(ms(t), ops)
	}
	ckT, ckN := sp.sum("checkpoint")
	reopen, _ := sp.sum("reopen")
	return []metric{
		{"sql.parse_ms_per_op", stage("parse"), "ms"},
		{"plan.plan_ms_per_op", stage("plan") + spanMs("build"), "ms"},
		{"plan.analyze_ms_per_op", stage("analyze"), "ms"},
		{"exec.execute_ms_per_op", stage("execute"), "ms"},
		{"exec.query_run_ms_per_op", spanMs("run"), "ms"},
		{"exec.operator_rows_per_op", per("exec.operator_rows"), "count"},
		{"exec.expr_evals_per_op", per("exec.expr_evals"), "count"},
		{"engine.rows_examined_per_row_returned", ratio(d["engine.rows_examined"], d["rows_returned"]), "ratio"},
		{"engine.page_reads_per_op", per("engine.page_reads"), "count"},
		{"engine.insert_ms_per_op", stage("apply"), "ms"},
		{"engine.ndp_pages_per_op", per("engine.ndp_pages"), "count"},
		{"buffer.hit_ratio", ratio(d["buffer.hits"], d["buffer.hits"]+d["buffer.misses"]), "ratio"},
		{"buffer.misses_per_op", per("buffer.misses"), "count"},
		{"buffer.evictions_per_op", per("buffer.evictions"), "count"},
		{"sal.commit_ms_per_op", stage("commit"), "ms"},
		{"sal.records_per_window", ratio(d["sal.records"], d["sal.windows"]), "count"},
		{"sal.seal_ms_per_op", perMs("sal.seal_s"), "ms"},
		{"sal.append_ms_per_op", perMs("sal.append_s"), "ms"},
		{"sal.durable_wait_ms_per_op", perMs("sal.durable_wait_s"), "ms"},
		{"sal.apply_ms_per_op", perMs("sal.apply_s"), "ms"},
		{"sal.commit_waits_per_op", per("sal.commit_waits"), "count"},
		{"sal.apply_waits_per_op", per("sal.apply_waits"), "count"},
		{"sal.backpressure_stalls_per_op", per("sal.backpressure_stalls"), "count"},
		{"sal.fetch_batch_ms_per_op", perMs("sal.fetch_batch_s"), "ms"},
		{"sal.scan_hedged_per_routed", ratio(d["sal.scan_hedged"], d["sal.scan_routed"]), "ratio"},
		{"sal.scan_retried_per_op", per("sal.scan_retried"), "count"},
		{"cluster.calls_per_op", per("cluster.calls"), "count"},
		{"cluster.batch_read_bytes_per_op", per("bytes.MsgBatchRead"), "B"},
		{"cluster.read_page_bytes_per_op", per("bytes.MsgReadPage"), "B"},
		{"cluster.log_append_bytes_per_op", per("bytes.MsgLogAppend"), "B"},
		{"cluster.write_logs_bytes_per_op", per("bytes.MsgWriteLogs"), "B"},
		{"logstore.append_ms_per_op", perMs("logstore.append_s"), "ms"},
		{"logstore.syncs_per_commit", ratio(d["logstore.syncs"], d["commits"]), "count"},
		{"pagestore.apply_ms_per_op", perMs("pagestore.apply_s"), "ms"},
		{"pagestore.records_applied_per_op", per("pagestore.applied"), "count"},
		{"pagestore.ndp_records_in_per_out", ratio(d["pagestore.ndp_in"], d["pagestore.ndp_out"]), "ratio"},
		{"pagestore.ndp_pages_skipped_ratio", ratio(d["pagestore.ndp_skipped"], d["pagestore.ndp_processed"]+d["pagestore.ndp_skipped"]), "ratio"},
		{"pagestore.read_ms_per_op", perMs("pagestore.read_s"), "ms"},
		{"pagestore.desc_cache_hit_ratio", ratio(d["pagestore.desc_hits"], d["pagestore.desc_hits"]+d["pagestore.desc_misses"]), "ratio"},
		{"pstore.checkpoint_ms_per_call", ratio(ms(ckT), float64(ckN)), "ms"},
		{"pstore.checkpoint_bytes_per_call", ratio(d["pstore.checkpoint_bytes"], d["pstore.checkpoint_calls"]), "B"},
		{"net_bytes_per_op", per("net_bytes"), "B"},
		{"stored_bytes_per_user_byte", d["stored_bytes_per_user_byte"], "ratio"},
		{"recovery_s", ms(reopen) / 1000, "s"},
		{"bench.trace_overhead_ratio", overhead, "ratio"},
	}
}
