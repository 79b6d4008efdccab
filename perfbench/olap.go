package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"taurus"
	"taurus/internal/exec"
	"taurus/internal/tpch"
	"taurus/internal/types"
)

// olapQueries is the olap_scan query set: Q1, Q6, Q12, Q14 and Q15 are the
// scans NDP speeds up in the paper; Q11 and Q19 are queries NDP does not
// apply to, so a change to the NDP path should leave them alone.
var olapQueries = []string{"Q1", "Q6", "Q12", "Q14", "Q15", "Q11", "Q19"}

// olapPass is one pass of the mix. Measured per-query medians on the
// reference host, fastest first, are Q11 4.5 ms, Q6 14 ms, Q15 16 ms,
// Q14 16 ms, Q12 26 ms, Q19 32 ms and Q1 66 ms. Q6, Q15 and Q14 are too
// close to keep a percentile between them, so the weights put p50 in the
// middle of Q12's block (ranks 37.5%-62.5%) and p90 in the middle of
// Q1's (81.25%-100%).
var olapPass = []string{
	"Q11", "Q11", "Q6", "Q6", "Q15", "Q14",
	"Q12", "Q12", "Q12", "Q12",
	"Q19", "Q19", "Q19",
	"Q1", "Q1", "Q1",
}

// tpchScan is one olap_scan deployment: TPC-H loaded into an embedded
// deployment whose buffer pool holds about a third of lineitem's leaf
// pages, so scans cannot be served from the cache.
type tpchScan struct {
	cfg     *config
	db      *taurus.DB
	tdb     *tpch.DB
	queries map[string]tpch.Query
	ref     map[string]string // NDP-off result of each query
	rng     *rand.Rand
	order   []string // the rest of the current pass
	stats   exec.ExecStatsSnapshot
	rows    int
	perQ    map[string][]time.Duration
}

// olapPoolPages is bench.NewFixture's sizing rule: lineitem has ~96 rows
// per leaf page, and the pool holds a third of its leaf level.
func olapPoolPages(sf float64) int {
	return max(int(6000000*sf)/96/3, 96)
}

func openTPCH(cfg *config, _ *stageLog, keep bool) (instance, time.Duration, error) {
	w := &tpchScan{cfg: cfg, queries: map[string]tpch.Query{}, ref: map[string]string{}, perQ: map[string][]time.Duration{}}
	for _, name := range olapQueries {
		q, err := tpch.QueryByName(name)
		if err != nil {
			return nil, 0, err
		}
		w.queries[name] = q
	}
	start := time.Now()
	db, err := openDB(taurus.Config{
		PagesPerSlice: 64, PoolPages: olapPoolPages(cfg.SF), NDPMaxPagesLookAhead: 64,
	}, nil)
	if err != nil {
		return nil, 0, err
	}
	w.db = db
	if w.tdb, err = tpch.Load(db.Engine(), cfg.SF); err != nil {
		db.Close()
		return nil, 0, fmt.Errorf("tpch load: %w", err)
	}
	setup := time.Since(start)
	if keep {
		// The reference answers, computed once with NDP off and kept
		// out of every timed window.
		for _, name := range olapQueries {
			q := w.queries[name]
			rows, err := tpch.Run(tpch.NewEnv(w.tdb, false), exec.NewCtx(w.tdb.Eng), q)
			if err != nil {
				db.Close()
				return nil, 0, fmt.Errorf("%s without NDP: %w", q.Name, err)
			}
			w.ref[q.Name] = formatRows(rows)
		}
	}
	// One untimed pass: the first queries after a load run 2-4x slower.
	start = time.Now()
	for _, name := range olapQueries {
		if _, _, err := w.run(w.queries[name], nil); err != nil {
			db.Close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	w.rng = rand.New(rand.NewSource(cfg.Seed))
	w.stats = exec.ExecStatsSnapshot{}
	w.rows = 0
	return w, setup + time.Since(start), nil
}

func (w *tpchScan) DB() *taurus.DB { return w.db }
func (w *tpchScan) clients() int   { return 1 }

// run executes one query with NDP on, the way tpch.Run does, with the
// plan build and the executor run in spans of their own. It checks the
// result against the NDP-off reference when there is one.
func (w *tpchScan) run(q tpch.Query, sp *spans) (time.Duration, int, error) {
	env := tpch.NewEnv(w.tdb, true)
	ctx := exec.NewCtx(w.tdb.Eng)
	var op exec.Operator
	var rows []types.Row
	var err error
	start := time.Now()
	sp.time("build", func() { op = q.Build(env, ctx) })
	if err = env.Err(); err == nil {
		sp.time("run", func() { rows, err = exec.Run(ctx, op) })
	}
	d := time.Since(start)
	if err != nil {
		return d, 0, fmt.Errorf("%s: %w", q.Name, err)
	}
	w.stats = addExec(w.stats, ctx.Stats.Snapshot())
	w.rows += len(rows)
	if ref, ok := w.ref[q.Name]; ok && formatRows(rows) != ref {
		return d, 0, wrongf("%s with NDP differs from its NDP-off result", q.Name)
	}
	return d, len(rows), nil
}

func addExec(a, b exec.ExecStatsSnapshot) exec.ExecStatsSnapshot {
	a.OperatorRows += b.OperatorRows
	a.ExprEvals += b.ExprEvals
	a.HashOps += b.HashOps
	a.SortRows += b.SortRows
	return a
}

func formatRows(rows []types.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for i, d := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "%v", d)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// measure runs olapPass over and over, each pass in an order drawn from
// the seed, one client, until the window ends.
func (w *tpchScan) measure(share float64, sp *spans) (*opLog, time.Duration) {
	l := &opLog{}
	deadline := time.Now().Add(time.Duration(share * w.cfg.Seconds * float64(time.Second)))
	start := time.Now()
	for time.Now().Before(deadline) {
		if len(w.order) == 0 {
			for _, i := range w.rng.Perm(len(olapPass)) {
				w.order = append(w.order, olapPass[i])
			}
		}
		q := w.queries[w.order[0]]
		w.order = w.order[1:]
		d, _, err := w.run(q, sp)
		if err != nil {
			l.record(err)
			continue
		}
		l.ok(d)
		w.perQ[q.Name] = append(w.perQ[q.Name], d)
	}
	return l, time.Since(start)
}

func (w *tpchScan) notes() []string {
	out := []string{fmt.Sprintf("TPC-H SF %g, buffer pool %d pages, per-query median latency:", w.cfg.SF, olapPoolPages(w.cfg.SF))}
	for _, name := range olapQueries {
		ds := w.perQ[name]
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		out = append(out, fmt.Sprintf("  %-4s n=%-4d p50=%.3f ms", name, len(ds), ms(ds[len(ds)/2])))
	}
	return out
}

func (w *tpchScan) finish(*spans) (map[string]float64, error) {
	return map[string]float64{
		"rows_returned":      float64(w.rows),
		"exec.operator_rows": float64(w.stats.OperatorRows),
		"exec.expr_evals":    float64(w.stats.ExprEvals),
	}, w.db.Close()
}
