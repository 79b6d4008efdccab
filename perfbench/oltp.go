package main

import (
	"fmt"
	"io/fs"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taurus"
)

// kvValue is the value the generator stores under a key: a mix of the seed
// and the key, so a read that returns another key's row is caught.
func kvValue(seed int64, id int64) int64 {
	x := uint64(id)*0x9E3779B97F4A7C15 ^ uint64(seed)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x % 1000000)
}

// openDB opens an embedded deployment with the benchmark's fixed settings:
// no heartbeats and no timer checkpointer, so no background traffic lands
// in a measured window. A traced deployment arms the SLOW-OP log at 1 ns,
// so every statement reports its stage breakdown to stages.
func openDB(cfg taurus.Config, stages *stageLog) (*taurus.DB, error) {
	cfg.HeartbeatInterval = -1
	cfg.CheckpointInterval = 0
	if stages != nil {
		cfg.SlowOpThreshold = time.Nanosecond
		cfg.SlowOpLogger = log.New(stages, "", 0)
	}
	return taurus.Open(cfg)
}

// loadKV creates kv(id, v) and fills it with the given ids in multi-row
// INSERT statements.
func loadKV(db *taurus.DB, seed int64, ids []int64) error {
	if _, err := db.Exec("CREATE TABLE kv (id BIGINT, v INT, PRIMARY KEY(id))"); err != nil {
		return fmt.Errorf("create kv: %w", err)
	}
	const batch = 500
	for i := 0; i < len(ids); i += batch {
		var b strings.Builder
		b.WriteString("INSERT INTO kv VALUES ")
		for j := i; j < i+batch && j < len(ids); j++ {
			if j > i {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "(%d, %d)", ids[j], kvValue(seed, ids[j]))
		}
		if _, err := db.Exec(b.String()); err != nil {
			return fmt.Errorf("load kv: %w", err)
		}
	}
	return nil
}

// readOp is one oltp_read statement: a point read of key lo (hi == lo) or
// a range read of [lo, hi].
type readOp struct{ lo, hi int64 }

// readGen generates the oltp_read mix: 75% primary-key point reads and
// 25% short BETWEEN ranges, keys uniform over the table. Point reads are
// the faster class, so p50 falls inside the point class and p90 inside
// the range class.
type readGen struct {
	rng      *rand.Rand
	rows     int64
	rangeLen int64
}

func (g *readGen) next() readOp {
	if g.rng.Intn(4) < 3 {
		k := g.rng.Int63n(g.rows)
		return readOp{k, k}
	}
	lo := g.rng.Int63n(g.rows - g.rangeLen + 1)
	return readOp{lo, lo + g.rangeLen - 1}
}

// kvRead is one oltp_read deployment: kv holds ids 0..rows-1.
type kvRead struct {
	cfg    *config
	db     *taurus.DB
	gen    *readGen
	rows   int // returned by the measured window
	ops    int
	points int
}

func openKVRead(cfg *config, stages *stageLog, _ bool) (instance, time.Duration, error) {
	start := time.Now()
	db, err := openDB(taurus.Config{}, stages)
	if err != nil {
		return nil, 0, err
	}
	w := &kvRead{cfg: cfg, db: db}
	ids := make([]int64, cfg.KVRows)
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := loadKV(db, cfg.Seed, ids); err != nil {
		db.Close()
		return nil, 0, err
	}
	// Warm-up ops come from a generator of their own, so the measured
	// sequence is the same whatever the warm-up did.
	warm := &readGen{rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)), rows: int64(cfg.KVRows), rangeLen: int64(cfg.RangeLen)}
	for i := 0; i < cfg.WarmOps; i++ {
		if _, err := w.do(warm.next()); err != nil {
			db.Close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	// Wait until the set-up's writes are durable and applied, so they do
	// not spill into a measured window.
	if err := db.Engine().SAL().Flush(); err != nil {
		db.Close()
		return nil, 0, fmt.Errorf("flush: %w", err)
	}
	w.gen = &readGen{rng: rand.New(rand.NewSource(cfg.Seed)), rows: int64(cfg.KVRows), rangeLen: int64(cfg.RangeLen)}
	return w, time.Since(start), nil
}

func (w *kvRead) DB() *taurus.DB { return w.db }
func (w *kvRead) clients() int   { return 1 }

// do runs one read and checks every returned row against the generator.
// A wrong answer is returned as errWrong.
func (w *kvRead) do(op readOp) (int, error) {
	if op.lo == op.hi {
		q := fmt.Sprintf("SELECT v FROM kv WHERE id = %d", op.lo)
		res, err := w.db.Exec(q)
		if err != nil {
			return 0, err
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != kvValue(w.cfg.Seed, op.lo) {
			return 0, wrongf("%s: got %v, want [[%d]]", q, res.Rows, kvValue(w.cfg.Seed, op.lo))
		}
		return 1, nil
	}
	q := fmt.Sprintf("SELECT id, v FROM kv WHERE id BETWEEN %d AND %d", op.lo, op.hi)
	res, err := w.db.Exec(q)
	if err != nil {
		return 0, err
	}
	want := int(op.hi - op.lo + 1)
	if len(res.Rows) != want {
		return 0, wrongf("%s: %d rows, want %d", q, len(res.Rows), want)
	}
	seen := make(map[int64]bool, want)
	for _, r := range res.Rows {
		id, v := r[0].Int(), r[1].Int()
		if id < op.lo || id > op.hi || seen[id] || v != kvValue(w.cfg.Seed, id) {
			return 0, wrongf("%s: row (%d, %d) unexpected", q, id, v)
		}
		seen[id] = true
	}
	return len(res.Rows), nil
}

func (w *kvRead) measure(share float64, _ *spans) (*opLog, time.Duration) {
	l := &opLog{}
	deadline := time.Now().Add(time.Duration(share * w.cfg.Seconds * float64(time.Second)))
	start := time.Now()
	for time.Now().Before(deadline) {
		op := w.gen.next()
		t := time.Now()
		n, err := w.do(op)
		d := time.Since(t)
		if err != nil {
			l.record(err)
			continue
		}
		l.ok(d)
		w.rows += n
		w.ops++
		if op.lo == op.hi {
			w.points++
		}
	}
	return l, time.Since(start)
}

func (w *kvRead) notes() []string {
	return []string{fmt.Sprintf("mix: %d point reads, %d range reads of %d keys over %d rows",
		w.points, w.ops-w.points, w.cfg.RangeLen, w.cfg.KVRows)}
}

func (w *kvRead) finish(*spans) (map[string]float64, error) {
	return map[string]float64{"rows_returned": float64(w.rows)}, w.db.Close()
}

// writeWarmOps is oltp_write's untimed warm-up, kept small because every
// insert grows the table the measured inserts start from.
const writeWarmOps = 20

// kvWrite is one oltp_write deployment: a durable kv table of even ids
// that the clients fill with fresh odd ids, in an order drawn from the
// seed, so inserts land all over the tree.
type kvWrite struct {
	cfg   *config
	dir   string
	db    *taurus.DB
	fresh []int64 // odd ids not yet inserted, in insertion order
	next  int

	mu     sync.Mutex
	acked  []int64 // every insert that returned without error
	failed []int64 // inserts that returned an error: durable or not
	ckpts  int
	ckptB  int64
	ckErr  error
	// done counts the measured inserts acknowledged so far; every
	// CheckpointEvery-th one requests a checkpoint.
	done atomic.Int64
}

func openKVWrite(cfg *config, stages *stageLog, _ bool) (instance, time.Duration, error) {
	if n := cfg.writeOps() + writeWarmOps; n > cfg.KVRows {
		return nil, 0, fmt.Errorf("%d inserts need more than the table's %d fresh keys; shorten --seconds", n, cfg.KVRows)
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "data-")
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	db, err := openDB(taurus.Config{DataDir: dir}, stages)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	w := &kvWrite{cfg: cfg, dir: dir, db: db}
	ids := make([]int64, cfg.KVRows)
	for i := range ids {
		ids[i] = 2 * int64(i)
	}
	if err := loadKV(db, cfg.Seed, ids); err != nil {
		w.abort()
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, i := range rng.Perm(cfg.KVRows) {
		w.fresh = append(w.fresh, 2*int64(i)+1)
	}
	// Start from a checkpointed, truncated log, as a long-running node
	// would be.
	if err := w.checkpoint(nil); err != nil {
		w.abort()
		return nil, 0, err
	}
	// A warm-up insert that fails is not measured; its key is kept with
	// the failed ones, so the reopen check allows it either way.
	w.insertN(writeWarmOps, nil)
	if err := db.Engine().SAL().Flush(); err != nil {
		w.abort()
		return nil, 0, fmt.Errorf("flush: %w", err)
	}
	w.ckpts, w.ckptB = 0, 0
	w.done.Store(0)
	return w, time.Since(start), nil
}

func (w *kvWrite) DB() *taurus.DB { return w.db }
func (w *kvWrite) clients() int   { return w.cfg.WriteClients }

func (w *kvWrite) abort() {
	w.db.Close()
	os.RemoveAll(w.dir)
}

// checkpoint is the body of the program's checkpointer loop, driven by
// the op count instead of a timer.
func (w *kvWrite) checkpoint(sp *spans) error {
	var err error
	var res *taurus.CheckpointResult
	sp.time("checkpoint", func() {
		if res, err = w.db.Checkpoint(); err == nil {
			_, err = w.db.TruncateLogs()
		}
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	w.mu.Lock()
	w.ckpts++
	w.ckptB += res.BytesWritten
	w.mu.Unlock()
	return nil
}

// insertN runs n single-row INSERTs of fresh keys from WriteClients
// closed-loop clients, with a checkpoint after every CheckpointEvery
// completed inserts.
func (w *kvWrite) insertN(n int, sp *spans) (*opLog, time.Duration) {
	l := &opLog{}
	keys := w.fresh[w.next : w.next+n]
	w.next += n
	var idx atomic.Int64
	ckReq := make(chan struct{}, n/max(w.cfg.CheckpointEvery, 1)+1) // one slot per checkpoint this call can trigger
	ckDone := make(chan struct{})
	go func() {
		defer close(ckDone)
		for range ckReq {
			if err := w.checkpoint(sp); err != nil {
				w.mu.Lock()
				if w.ckErr == nil {
					w.ckErr = err
				}
				w.mu.Unlock()
			}
		}
	}()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.cfg.WriteClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := idx.Add(1) - 1
				if i >= int64(len(keys)) {
					return
				}
				id := keys[i]
				t := time.Now()
				_, err := w.db.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", id, kvValue(w.cfg.Seed, id)))
				d := time.Since(t)
				w.mu.Lock()
				if err != nil {
					w.failed = append(w.failed, id)
				} else {
					w.acked = append(w.acked, id)
				}
				w.mu.Unlock()
				if err != nil {
					l.record(err)
					continue
				}
				l.ok(d)
				if every := int64(w.cfg.CheckpointEvery); every > 0 && w.done.Add(1)%every == 0 {
					ckReq <- struct{}{}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(ckReq)
	<-ckDone
	return l, elapsed
}

func (w *kvWrite) measure(share float64, sp *spans) (*opLog, time.Duration) {
	return w.insertN(int(share*float64(w.cfg.writeOps())), sp)
}

func (w *kvWrite) notes() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return []string{fmt.Sprintf("%d inserts acknowledged and %d failed, from %d clients into %d starting rows, %d checkpoints",
		len(w.acked), len(w.failed), w.cfg.WriteClients, w.cfg.KVRows, w.ckpts)}
}

// finish closes the deployment, reopens it from DataDir (timed as
// recovery), checks that every acknowledged insert and every loaded row
// reads back, and removes the data directory.
func (w *kvWrite) finish(sp *spans) (map[string]float64, error) {
	defer os.RemoveAll(w.dir)
	w.mu.Lock()
	defer w.mu.Unlock()
	counts := map[string]float64{
		"pstore.checkpoint_calls": float64(w.ckpts),
		"pstore.checkpoint_bytes": float64(w.ckptB),
	}
	if w.ckErr != nil {
		w.db.Close()
		return counts, w.ckErr
	}
	if err := w.db.Close(); err != nil {
		return counts, fmt.Errorf("close: %w", err)
	}
	stored, err := dirBytes(w.dir)
	if err != nil {
		return counts, err
	}
	var db *taurus.DB
	sp.time("reopen", func() { db, err = openDB(taurus.Config{DataDir: w.dir}, nil) })
	if err != nil {
		return counts, fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	res, err := db.Exec("SELECT id, v FROM kv")
	if err != nil {
		return counts, fmt.Errorf("read back: %w", err)
	}
	// Every loaded and acknowledged row must be there. A failed insert
	// may or may not have become durable; no other row may appear.
	want := map[int64]bool{}
	for i := 0; i < w.cfg.KVRows; i++ {
		want[2*int64(i)] = true
	}
	for _, id := range w.acked {
		want[id] = true
	}
	maybe := map[int64]bool{}
	for _, id := range w.failed {
		maybe[id] = true
	}
	for _, r := range res.Rows {
		id, v := r[0].Int(), r[1].Int()
		switch {
		case v != kvValue(w.cfg.Seed, id):
			return counts, wrongf("after reopen kv holds (%d, %d), a value never written", id, v)
		case want[id]:
			delete(want, id)
		case maybe[id]:
			delete(maybe, id)
		default:
			return counts, wrongf("after reopen kv holds id %d twice or without an insert", id)
		}
	}
	if len(want) > 0 {
		return counts, wrongf("after reopen %d loaded or acknowledged rows are missing", len(want))
	}
	// User bytes: 8-byte id plus 4-byte value per row.
	counts["stored_bytes_per_user_byte"] = ratio(float64(stored), float64(12*len(res.Rows)))
	return counts, nil
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
