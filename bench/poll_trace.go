package main

import (
	"runtime"
	"time"
)

// traced measures consumer-poll's layers in one serving session: the
// closed loop with a connection per processor, then on one connection
// untraced and traced, and the open loop traced. A client
// span covers a request from the load generator's side; its child is the
// handler's side of it, so a client span's self time is the loopback and
// the HTTP stacks.
func (p *pollInstance) traced(d time.Duration) (map[string]float64, *observation, []span, error) {
	workers := runtime.GOMAXPROCS(0)
	rec := newRecorder(spanCapacity)
	run, err := p.start(workers, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	obs := &observation{repeats: 1, digest: p.digest}
	parallel := median(run.phaseA(d/5, workers))
	plain := median(run.phaseA(d/5, 1))
	run.tracing.Store(true)
	traced := median(run.phaseA(d/5, 1))
	latencies, lateMax := run.phaseB(2*d/5, 1)
	run.tracing.Store(false)
	if err := run.stop(); err != nil {
		return nil, nil, nil, err
	}
	obs.merge(run.checks)
	p.finalCheck(&obs.checks)

	spans := rec.snapshot()
	by := sumByName(spans)
	ar := runAPIRungs(p.api)
	total := float64(run.total())
	m := map[string]float64{
		"parallel_ops_per_s":   parallel,
		"serial_ops_per_s":     plain,
		"trace.overhead_share": plain/traced - 1,
		"api.bytes_per_req":    float64(run.bytes) / total,
		"api.status_304_share": float64(run.notMod) / total,
		"loadgen.late_ms_max":  ms(lateMax),
		"loadgen.serve_ms_p99": percentile(latencies, 0.99),
		"feedserve.rebuilds":   float64(run.rebuilds),
		"feedserve.export_mb":  float64(len(p.cache.Current().ExportNDJSON())) / (1 << 20),
		"store.records":        float64(p.coll.Len()),
	}
	if run.rebuilds > 0 {
		m["feedserve.rebuild_ms"] = float64(run.rebuildNS) / 1e6 / float64(run.rebuilds)
		m["feedserve.rebuild_ns_per_record"] = float64(run.rebuildNS) / float64(run.rebuiltItems)
	}
	if run.inserts > 0 {
		m["store.insert_ns_per_record"] = float64(run.insertNS) / float64(run.inserts)
		m["store.update_ns_per_record"] = float64(run.updateNS) / float64(run.updates)
	}
	ar.report(m)

	// The ladder over the traced phases: what the clients waited for, and
	// how much of it the handler explains.
	var client, handler int64
	for k := range kindNames {
		client += by["client."+kindNames[k]].Total
		handler += by["api."+kindNames[k]].Total
	}
	m["ladder.serve_s"] = float64(handler) / 1e9
	m["ladder.back_s"] = float64(by["store.write"].Total) / 1e9
	if client > 0 {
		m["ladder.unexplained_share"] = 1 - float64(handler)/float64(client)
	}
	return m, obs, spans, nil
}
