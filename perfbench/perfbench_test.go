package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tinyConfig shrinks every size so a workload runs in about a second.
func tinyConfig(t *testing.T) config {
	c := defaultConfig()
	c.Seed = 7
	c.Seconds = 0.5
	c.Setups = 2
	c.KVRows = 400
	c.RangeLen = 10
	c.WarmOps = 10
	c.WritesPerSecond = 80 // 40 inserts in half a second of window
	c.CheckpointEvery = 15
	c.SF = 0.001
	c.WorkDir = t.TempDir()
	return c
}

// spec is the part of BENCHMARK.json the output must match.
type spec struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func runTiny(t *testing.T, cfg config, open opener) *outcome {
	t.Helper()
	out, err := run(&cfg, open)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEveryMetricPrintsWithUnit runs each workload untraced and traced and
// checks that the printed JSON carries exactly the metrics BENCHMARK.json
// names, each with its unit.
func TestEveryMetricPrintsWithUnit(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		open, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			cfg := tinyConfig(t)
			cfg.Trace = trace
			out := runTiny(t, cfg, open)
			if !out.Correct || out.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d notes=%v", w.Name, trace, out.Correct, out.Attempted, out.Notes)
			}
			line, err := resultJSON(out)
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
				t.Fatalf("%s: result %s lacks a key", w.Name, line)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value == nil {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCountsRepeatForSeed runs a fixed prefix of the oltp workloads'
// operation sequences twice with one seed, through the same calls the
// measured windows make: the counters must move by the same amounts.
// With two writers the group-commit counts (windows, fsyncs, records
// applied) depend on timing, so oltp_write is held to the counts that do
// not.
func TestCountsRepeatForSeed(t *testing.T) {
	exact := map[string][]string{
		"oltp_read": {
			"engine.rows_examined", "engine.page_reads", "buffer.hits", "buffer.misses",
			"cluster.calls", "net_bytes",
		},
		"oltp_write": {"engine.page_reads", "buffer.hits", "buffer.misses"},
	}
	const prefix = 200
	for name, keys := range exact {
		var first map[string]float64
		for i := 0; i < 2; i++ {
			cfg := tinyConfig(t)
			in, _, err := workloads[name](&cfg, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			before := counters(in.DB())
			var l *opLog
			switch w := in.(type) {
			case *kvRead:
				l = &opLog{}
				for n := 0; n < prefix; n++ {
					if _, err := w.do(w.gen.next()); err != nil {
						l.record(err)
					} else {
						l.ok(0)
					}
				}
			case *kvWrite:
				l, _ = w.insertN(prefix/5, nil)
			}
			got := delta(before, counters(in.DB()))
			if _, err := in.finish(nil); err != nil || l.failed > 0 {
				t.Fatalf("%s: %d of %d operations failed, check: %v (%s)", name, l.failed, l.attempted, err, l.firstErr)
			}
			if first == nil {
				first = got
				continue
			}
			for _, k := range keys {
				if got[k] != first[k] {
					t.Errorf("%s: %s moved by %v then %v for the same seed", name, k, first[k], got[k])
				}
			}
		}
	}
}

// TestWrongAnswerFailsCheck makes the expected answers wrong after setup
// and requires every workload's correctness check to catch it.
func TestWrongAnswerFailsCheck(t *testing.T) {
	corrupt := map[string]func(cfg *config, in instance){
		// The generator's values now come from another seed.
		"oltp_read":  func(cfg *config, _ instance) { cfg.Seed++ },
		"oltp_write": func(cfg *config, _ instance) { cfg.Seed++ },
		"olap_scan":  func(_ *config, in instance) { in.(*tpchScan).ref["Q6"] = "not the answer\n" },
	}
	for name, bad := range corrupt {
		open := func(cfg *config, st *stageLog, keep bool) (instance, time.Duration, error) {
			in, d, err := workloads[name](cfg, st, keep)
			if err == nil && keep {
				bad(cfg, in)
			}
			return in, d, err
		}
		out := runTiny(t, tinyConfig(t), open)
		if out.Correct {
			t.Errorf("%s: a wrong expected answer passed the check (notes %v)", name, out.Notes)
		}
	}
}

func TestPromSum(t *testing.T) {
	text := `# TYPE taurus_x_seconds histogram
taurus_x_seconds_sum{stage="seal"} 1.5
taurus_x_seconds_sum{stage="append"} 2
taurus_x_seconds_sum_other 9
taurus_x_seconds_count{stage="seal"} 3
`
	if got := promSum(text, "taurus_x_seconds_sum", `stage="seal"`); got != 1.5 {
		t.Errorf("seal sum = %v, want 1.5", got)
	}
	if got := promSum(text, "taurus_x_seconds_sum", ""); got != 3.5 {
		t.Errorf("all sums = %v, want 3.5", got)
	}
}

func TestStageLogParsesSlowOpLines(t *testing.T) {
	s := newStageLog()
	s.Write([]byte(`SLOW-OP op="SELECT v FROM kv WHERE id = 1" total=3ms stages=parse:12µs,plan:1ms,execute:2ms` + "\n"))
	s.arm()
	s.Write([]byte(`SLOW-OP op="SELECT v, x:y FROM kv" total=3ms stages=parse:12µs,plan:1ms,execute:2ms` + "\n"))
	s.Write([]byte(`SLOW-OP op="INSERT INTO kv VALUES (1, 2)" total=5ms stages=parse:8µs,apply:1ms,commit:3ms,analyze:1ms` + "\n"))
	if got := s.msPerOp("parse", 2); got != 0.01 {
		t.Errorf("parse = %v ms/op, want 0.01", got)
	}
	if got := s.msPerOp("execute", 1); got != 2 {
		t.Errorf("execute = %v ms/op, want 2 (the unarmed line must not count)", got)
	}
}
