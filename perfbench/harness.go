package main

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"taurus"
)

// metric is one printed result: a name from BENCHMARK.json, its value and
// its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome is what one workload run reports.
type outcome struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	// Notes are human-readable lines printed before the JSON result
	// (sample counts, per-class breakdowns, the first wrong answer).
	Notes []string
}

// opLog collects the closed-loop clients' per-operation outcomes. A failed
// or wrong operation is attempted but not completed, and counts as missing
// every latency limit.
type opLog struct {
	mu        sync.Mutex
	lat       []time.Duration // completed operations only
	attempted int
	failed    int // errors and wrong answers
	wrong     int
	firstErr  string
}

func (l *opLog) ok(d time.Duration) {
	l.mu.Lock()
	l.lat = append(l.lat, d)
	l.attempted++
	l.mu.Unlock()
}

// record counts an operation that returned an error or a wrong answer.
func (l *opLog) record(err error) {
	l.mu.Lock()
	l.attempted++
	l.failed++
	if errors.Is(err, errWrong) {
		l.wrong++
	}
	if l.firstErr == "" {
		l.firstErr = err.Error()
	}
	l.mu.Unlock()
}

// quantile returns the nearest-rank q-quantile of the window's latencies
// in milliseconds. Failed operations rank above every completed one and
// are charged the whole window, the longest time any operation in it
// could have taken.
func (l *opLog) quantile(q float64, window time.Duration) float64 {
	n := l.attempted
	if n == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), l.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		return ms(window)
	}
	return ms(sorted[rank])
}

// merge adds the operations of o to l.
func (l *opLog) merge(o *opLog) {
	l.lat = append(l.lat, o.lat...)
	l.attempted += o.attempted
	l.failed += o.failed
	l.wrong += o.wrong
	if l.firstErr == "" {
		l.firstErr = o.firstErr
	}
}

func (l *opLog) meanMs() float64 {
	if len(l.lat) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range l.lat {
		sum += d
	}
	return ms(sum) / float64(len(l.lat))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// dataPathMsgs are the message types that carry user data between the
// frontend and the storage tiers. Control traffic (heartbeats, LSN
// queries, truncation) is left out of net_bytes_per_op.
var dataPathMsgs = []string{"MsgWriteLogs", "MsgReadPage", "MsgBatchRead", "MsgLogAppend"}

// counters reads every cumulative counter the per-layer metrics are
// derived from, through the DB's public stats accessors and its metrics
// registry. Two readings subtract to the work done between them.
func counters(db *taurus.DB) map[string]float64 {
	c := map[string]float64{"cpu_s": cpuSeconds()}
	e := db.EngineStats()
	c["engine.rows_examined"] = float64(e.RowsExaminedSQL)
	c["engine.page_reads"] = float64(e.RegularPageReads)
	c["engine.ndp_pages"] = float64(e.NDPPagesConsumed)
	for _, s := range db.BufferPoolStats() {
		c["buffer.hits"] += float64(s.Hits)
		c["buffer.misses"] += float64(s.Misses)
		c["buffer.evictions"] += float64(s.Evictions)
	}
	w := db.WritePathStats()
	c["sal.windows"] = float64(w.WindowsFlushed)
	c["sal.records"] = float64(w.RecordsFlushed)
	c["sal.commit_waits"] = float64(w.CommitWaits)
	c["sal.apply_waits"] = float64(w.ApplyWaits)
	c["sal.backpressure_stalls"] = float64(w.BackpressureStalls)
	r := db.ScanRouting()
	c["sal.scan_routed"] = float64(r.ScanRouted)
	c["sal.scan_retried"] = float64(r.ScanRetried)
	c["sal.scan_hedged"] = float64(r.ScanHedged)
	rpc := db.RPCStats()
	for name, st := range rpc {
		c["cluster.calls"] += float64(st.Requests)
		c["bytes."+name] = float64(st.RequestBytes + st.ReplyBytes)
	}
	for _, name := range dataPathMsgs {
		c["net_bytes"] += c["bytes."+name]
	}
	for _, ls := range db.LogStoreStats() {
		c["logstore.syncs"] += float64(ls.Log.Syncs)
	}
	for _, n := range db.PageStoreNodes() {
		c["pagestore.applied"] += float64(n.Stats.LogRecordsApplied)
		c["pagestore.ndp_in"] += float64(n.Stats.NDPRecordsIn)
		c["pagestore.ndp_out"] += float64(n.Stats.NDPRecordsOut)
		c["pagestore.ndp_processed"] += float64(n.Stats.NDPPagesProcessed)
		c["pagestore.ndp_skipped"] += float64(n.Stats.NDPPagesSkipped)
		c["pagestore.desc_hits"] += float64(n.DescCacheHits)
		c["pagestore.desc_misses"] += float64(n.DescCacheMisses)
	}
	var prom bytes.Buffer
	if err := db.Metrics().WritePrometheus(&prom); err == nil {
		text := prom.String()
		for _, h := range []struct{ key, family, label string }{
			{"sal.seal_s", "taurus_writepath_stage_seconds", `stage="seal"`},
			{"sal.append_s", "taurus_writepath_stage_seconds", `stage="append"`},
			{"sal.durable_wait_s", "taurus_writepath_stage_seconds", `stage="durable_wait"`},
			{"sal.apply_s", "taurus_writepath_stage_seconds", `stage="apply"`},
			{"sal.fetch_batch_s", "taurus_pagestore_fetch_seconds", `kind="batch"`},
			{"logstore.append_s", "taurus_logstore_append_seconds", ""},
			{"pagestore.apply_s", "taurus_pagestore_apply_seconds", ""},
			{"pagestore.read_s", "taurus_pagestore_read_seconds", ""},
		} {
			c[h.key] = promSum(text, h.family+"_sum", h.label)
		}
	}
	return c
}

// delta returns after-before for every counter.
func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// promSum adds the values of every sample of the named series in a
// Prometheus text exposition whose labels contain label ("" matches all).
func promSum(text, name, label string) float64 {
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue // a longer family name sharing the prefix
		}
		sp := strings.LastIndexByte(rest, ' ')
		if label != "" && !strings.Contains(rest[:sp], label) {
			continue
		}
		if v, err := strconv.ParseFloat(rest[sp+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// stageLog receives the deployment's SLOW-OP lines (threshold 1 ns, so
// every statement logs one) and sums each stage's time while armed. The
// stage names are the SQL layer's own: parse, plan, execute for SELECT;
// parse, apply, commit, analyze for INSERT.
type stageLog struct {
	mu    sync.Mutex
	armed bool
	sums  map[string]time.Duration
}

func newStageLog() *stageLog { return &stageLog{sums: map[string]time.Duration{}} }

// arm starts the sums; lines logged before it (the set-up's statements)
// are dropped.
func (s *stageLog) arm() {
	s.mu.Lock()
	s.armed = true
	s.mu.Unlock()
}

// Write parses one log line of the form
//
//	SLOW-OP op="..." total=3.1ms stages=parse:12µs,plan:40µs,execute:3ms
func (s *stageLog) Write(p []byte) (int, error) {
	line := strings.TrimSpace(string(p))
	i := strings.LastIndex(line, " stages=")
	if !strings.Contains(line, "SLOW-OP") || i < 0 {
		return len(p), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed {
		return len(p), nil
	}
	for _, st := range strings.Split(line[i+len(" stages="):], ",") {
		name, dur, ok := strings.Cut(st, ":")
		if !ok {
			continue
		}
		if d, err := time.ParseDuration(dur); err == nil {
			s.sums[name] += d
		}
	}
	return len(p), nil
}

func (s *stageLog) msPerOp(stage string, ops int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ratio(ms(s.sums[stage]), float64(ops))
}

// spans sums, by name, the benchmark's own timed regions around calls into
// the program: query build and run, checkpoints, reopen. A nil *spans only
// runs the calls.
type spans struct {
	mu    sync.Mutex
	total map[string]time.Duration
	count map[string]int
}

func newSpans() *spans {
	return &spans{total: map[string]time.Duration{}, count: map[string]int{}}
}

// time runs fn inside the named span.
func (s *spans) time(name string, fn func()) {
	if s == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	s.mu.Lock()
	s.total[name] += d
	s.count[name]++
	s.mu.Unlock()
}

// sum returns the named spans' total time and count.
func (s *spans) sum(name string) (time.Duration, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total[name], s.count[name]
}
