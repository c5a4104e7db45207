package main

// The benchmark's names live here and nowhere else: the workloads, the
// end-to-end metrics a feed operator or consumer would see, and the
// per-layer metrics of the traced run. BENCHMARK.json and README.md
// repeat them; spec_test.go fails when any of the three drifts.

// HeldOutSeed is never used while tuning the benchmark or a change
// measured with it; a claimed gain must also hold on it.
const (
	DefaultSeed = 2021
	HeldOutSeed = 4242
)

// metricSpec names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change is a
// regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// op is what one operation of ops_per_s and allocs_per_op is.
	op    string
	setup setupFunc
}

var workloadSpecs = []workloadSpec{
	{
		Name: "telescope-day",
		Why:  "Noise-dominated hours replayed from pcap.gz through the whole pipeline: thousands of packets per record, so pcapio, replay, trw and sampler do most of the work.",
		op:   "packet", setup: setupTelescopeDay,
	},
	{
		Name: "scan-storm",
		Why:  "Botnet-growth hours fed from memory: most sources just cross the TRW threshold, so zmap, annotate, store, server and feedserve do most of the work and pcapio none.",
		op:   "packet", setup: setupScanStorm,
	},
	{
		Name: "consumer-poll",
		Why:  "A 20k-record feed polled over loopback HTTP beside a writer and debounced snapshot rebuilds: only api and feedserve work, reads beside rebuilds instead of after them.",
		op:   "request", setup: setupConsumerPoll,
	},
	{
		Name: "durable-restart",
		Why:  "A captured sampler-event stream through WAL append and apply, hard-stopped at 80 percent, recovered and finished: codec and durable both ways, no packet work.",
		op:   "event", setup: setupDurableRestart,
	},
}

// Every workload reports every end-to-end metric (the driver's contract),
// so the set is the one that has a meaning on all four: work per second,
// the delay until a result is visible, and what a run costs in memory.
// What an op and a latency are on each workload is in README.md, and so
// is why the bounds are this wide: each is three times the run-to-run
// spread seen over ten seeds on a shared two-processor machine, or the
// contract's ceiling of a quarter.
var endToEndSpecs = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "1/op", Better: "lower", Bound: 0.15},
	{Name: "alloc_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.15},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

var perLayerSpecs = []metricSpec{
	// front half: capture reader, replay, detector, sampler
	{Name: "pcapio.read_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "pcapio.file_bytes_per_pkt", Unit: "B/pkt", Better: "lower"},
	{Name: "pcapio.allocs_per_pkt", Unit: "1/pkt", Better: "lower"},
	{Name: "replay.self_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "trw.process_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "trw.endhour_ms_per_hour", Unit: "ms", Better: "lower"},
	{Name: "trw.events_per_kpkt", Unit: "1/kpkt", Better: "lower"},
	{Name: "trw.active_sources", Unit: "count", Better: "lower"},
	{Name: "trw.allocs_per_pkt", Unit: "1/pkt", Better: "lower"},
	{Name: "sampler.self_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "sampler.batches", Unit: "count", Better: "higher"},
	{Name: "sampler.flow_ends", Unit: "count", Better: "higher"},
	{Name: "sampler.reports", Unit: "count", Better: "higher"},
	{Name: "sampler.accept_share", Unit: "ratio", Better: "higher"},
	// back half: probe, classify, annotate, store, server
	{Name: "features.extract_ns_per_flow", Unit: "ns/flow", Better: "lower"},
	{Name: "ml.predict_ns_per_flow", Unit: "ns/flow", Better: "lower"},
	{Name: "zmap.scan_ns_per_host", Unit: "ns/host", Better: "lower"},
	{Name: "zmap.probes_per_host", Unit: "1/host", Better: "lower"},
	{Name: "zmap.banner_share", Unit: "ratio", Better: "higher"},
	{Name: "annotate.batch_ns_per_flow", Unit: "ns/flow", Better: "lower"},
	{Name: "enrich.annotate_ns_per_flow", Unit: "ns/flow", Better: "lower"},
	{Name: "trainer.retrain_ms", Unit: "ms", Better: "lower"},
	{Name: "trainer.retrains", Unit: "count", Better: "lower"},
	{Name: "store.insert_ns_per_record", Unit: "ns/rec", Better: "lower"},
	{Name: "store.update_ns_per_record", Unit: "ns/rec", Better: "lower"},
	{Name: "store.expire_us_per_call", Unit: "us", Better: "lower"},
	{Name: "store.expire_calls", Unit: "count", Better: "lower"},
	{Name: "store.records", Unit: "count", Better: "higher"},
	{Name: "server.handle_ns_per_event", Unit: "ns/ev", Better: "lower"},
	{Name: "server.self_ns_per_event", Unit: "ns/ev", Better: "lower"},
	{Name: "server.tick_ms_per_hour", Unit: "ms", Better: "lower"},
	// codec, WAL, snapshots, wire
	{Name: "codec.json_encode_ns_per_event", Unit: "ns/ev", Better: "lower"},
	{Name: "codec.json_decode_ns_per_event", Unit: "ns/ev", Better: "lower"},
	{Name: "codec.json_bytes_per_event", Unit: "B/ev", Better: "lower"},
	{Name: "codec.bin_encode_ns_per_event", Unit: "ns/ev", Better: "lower"},
	{Name: "codec.bin_decode_ns_per_event", Unit: "ns/ev", Better: "lower"},
	{Name: "codec.bin_bytes_per_event", Unit: "B/ev", Better: "lower"},
	{Name: "durable.append_ns_per_event", Unit: "ns/ev", Better: "lower"},
	{Name: "durable.wal_bytes_per_event", Unit: "B/ev", Better: "lower"},
	{Name: "durable.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.snapshot_mb", Unit: "MB", Better: "lower"},
	{Name: "durable.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "durable.replay_ns_per_event", Unit: "ns/ev", Better: "lower"},
	{Name: "durable.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.v2_ns_per_event", Unit: "ns/ev", Better: "lower"},
	// read path
	{Name: "feedserve.rebuild_ms", Unit: "ms", Better: "lower"},
	{Name: "feedserve.rebuild_ns_per_record", Unit: "ns/rec", Better: "lower"},
	{Name: "feedserve.export_mb", Unit: "MB", Better: "lower"},
	{Name: "feedserve.rebuilds", Unit: "count", Better: "lower"},
	{Name: "api.records_us_per_req", Unit: "us", Better: "lower"},
	{Name: "api.revalidate_us_per_req", Unit: "us", Better: "lower"},
	{Name: "api.cursor_us_per_req", Unit: "us", Better: "lower"},
	{Name: "api.export_us_per_req", Unit: "us", Better: "lower"},
	{Name: "api.bytes_per_req", Unit: "B/req", Better: "lower"},
	{Name: "api.status_304_share", Unit: "ratio", Better: "higher"},
	{Name: "loadgen.late_ms_max", Unit: "ms", Better: "lower"},
	{Name: "loadgen.serve_ms_p99", Unit: "ms", Better: "lower"},
	// harness
	{Name: "parallel_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serial_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serial_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ladder.front_s", Unit: "s", Better: "lower"},
	{Name: "ladder.back_s", Unit: "s", Better: "lower"},
	{Name: "ladder.serve_s", Unit: "s", Better: "lower"},
	{Name: "ladder.front_share", Unit: "ratio", Better: "lower"},
	{Name: "ladder.unexplained_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
