package main

import "testing"

func setOf(nproc int, workload string, metric string, values ...float64) []result {
	var out []result
	for _, v := range values {
		out = append(out, result{
			Env:      envStamp{NProc: nproc, GOMAXPROCS: nproc},
			Workload: workload,
			Metrics:  map[string]metricValue{metric: {Value: v}},
		})
	}
	return out
}

func TestCompareAppliesBoundsAndSpread(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		metric string
		a, b   []float64
		want   string
	}{
		{"same", "ops_per_s", steady, steady, "ok"},
		{"within bound", "ops_per_s", steady, scale(steady, 0.95), "ok"},
		{"throughput fell past its bound", "ops_per_s", steady, scale(steady, 0.7), "regressed"},
		{"throughput rose", "ops_per_s", steady, scale(steady, 1.5), "ok"},
		{"latency rose past its bound", "latency_ms_p50", steady, scale(steady, 1.3), "regressed"},
		{"allocations rose past their bound", "allocs_per_op", steady, scale(steady, 1.2), "regressed"},
		// Spread wider than the bound: the medians prove nothing.
		{"noisy", "ops_per_s", []float64{60, 100, 140, 80, 120, 100}, []float64{61, 99, 141, 79, 121, 100}, "unresolved"},
		// ... unless every run of b beats every run of a.
		{"noisy but all better", "ops_per_s", []float64{60, 100, 140, 80, 120, 100}, []float64{300, 500, 700, 400, 600, 500}, "ok"},
		// setup_s is judged on medians alone.
		{"setup noisy", "setup_s", []float64{1, 2, 3, 1, 2, 3}, []float64{1, 2, 3, 1, 2, 3}, "ok"},
	} {
		verdicts, err := compareSets(setOf(2, "scan-storm", c.metric, c.a...), setOf(2, "scan-storm", c.metric, c.b...))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(verdicts) != 1 || verdicts[0].Outcome != c.want {
			t.Errorf("%s: %+v, want outcome %s", c.name, verdicts, c.want)
		}
	}
}

func scale(values []float64, by float64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v * by
	}
	return out
}

func TestCompareRefusesDifferentProcessorCounts(t *testing.T) {
	a := setOf(2, "scan-storm", "ops_per_s", 100, 100)
	b := setOf(8, "scan-storm", "ops_per_s", 400, 400)
	if _, err := compareSets(a, b); err == nil {
		t.Error("sets from 2 and 8 processors were compared")
	}
	if _, err := compareSets(a, setOf(2, "telescope-day", "ops_per_s", 1)); err == nil {
		t.Error("sets that share no workload were compared")
	}
}
