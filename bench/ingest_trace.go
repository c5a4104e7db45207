package main

import (
	"time"
)

// traced measures the layers of an ingest workload: pipeline.Local at its
// default of one worker per processor, serial untraced and serial traced
// runs with the benchmark's own wiring, then the rungs. A quarter of d
// goes to each kind of run.
func (in *ingestInstance) traced(d time.Duration) (map[string]float64, *observation, []span, error) {
	obs := &observation{}
	var parallelWalls []float64
	for start := time.Now(); len(parallelWalls) == 0 || time.Since(start) < d/4; {
		u, err := in.drive(newLocalSink(in.world, 0), nil)
		if err != nil {
			return nil, nil, nil, err
		}
		in.observe(obs, u)
		u.front.close()
		parallelWalls = append(parallelWalls, u.wall.Seconds())
	}

	plainWalls, tracedWalls, best, rec, err := serialRuns(d, func(r *recorder) (*unit, time.Duration, error) {
		u, err := in.drive(newSerialSink(in.world, r), r)
		if err != nil {
			return nil, 0, err
		}
		in.observe(obs, u)
		return u, u.wall, nil
	}, func(u *unit) { u.front.close() })
	if err != nil {
		return nil, nil, nil, err
	}
	defer best.front.close()
	sink := best.sink.(*serialSink)
	spans := rec.snapshot()
	by := sumByName(spans)

	fr, err := in.runFrontRungs()
	if err != nil {
		return nil, nil, nil, err
	}
	br, err := runBackRungs(in.world, sink.srv, sink.events)
	if err != nil {
		return nil, nil, nil, err
	}
	ar := runAPIRungs(best.front.handler)

	pkts := float64(in.pkts)
	hours := float64(len(in.hours))
	events := float64(len(sink.events))
	accepted, dropped := sink.sampler.OrganizerStats()
	m := map[string]float64{
		"trw.process_ns_per_pkt":  fr.processNS / pkts,
		"trw.endhour_ms_per_hour": fr.endHourNS / 1e6 / hours,
		"trw.events_per_kpkt":     float64(fr.trwEvents) / pkts * 1e3,
		"trw.active_sources":      float64(fr.activeSources),
		"trw.allocs_per_pkt":      float64(fr.trwAllocs) / pkts,
		"sampler.self_ns_per_pkt": (float64(by["sampler"].Self) - fr.processNS - fr.endHourNS) / pkts,
		"sampler.batches":         float64(br.batchEvents),
		"sampler.flow_ends":       float64(br.flowEndEvents),
		"sampler.reports":         float64(br.reportEvents),
		"parallel_ops_per_s":      pkts / median(parallelWalls),
		"serial_ops_per_s":        pkts / median(plainWalls),
		"serial_events_per_s":     events / median(plainWalls),
		"trace.overhead_share":    median(tracedWalls)/median(plainWalls) - 1,
	}
	if accepted+dropped > 0 {
		m["sampler.accept_share"] = float64(accepted) / float64(accepted+dropped)
	}
	if in.sizes.fromDisk {
		m["pcapio.read_ns_per_pkt"] = fr.readNS / pkts
		m["pcapio.file_bytes_per_pkt"] = float64(in.fileBytes) / pkts
		m["pcapio.allocs_per_pkt"] = float64(fr.readAllocs) / pkts
		m["replay.self_ns_per_pkt"] = (fr.replayNS - fr.readNS) / pkts
	}
	br.report(m, sink, by, events, hours)
	best.front.report(m, by)
	ar.report(m)

	// The ladder. Leaves are spans around one layer; the spans that
	// enclose several layers are explained by their rungs.
	root := float64(by["run"].Total)
	front := float64(by["replay"].Total + by["sampler"].Self)
	back := float64(by["server.handle"].Total + by["server.tick"].Total + by["server.flushscans"].Total)
	serve := float64(by["feedserve.rebuild"].Total + by["api.cursor"].Total + by["api.export"].Total)
	explained := float64(by["replay"].Total) + fr.processNS + fr.endHourNS + br.explainedNS(sink) + serve
	m["ladder.front_s"] = front / 1e9
	m["ladder.back_s"] = back / 1e9
	m["ladder.serve_s"] = serve / 1e9
	m["ladder.front_share"] = front / root
	m["ladder.unexplained_share"] = 1 - explained/root
	return m, obs, spans, nil
}

// explainedNS is what the back-half rungs account for inside the server
// spans of the run sink drove: every flow probed and annotated once,
// every record inserted into both databases and updated at its flow end,
// the retrains, and Expire's walk on every Tick.
func (br *backRungs) explainedNS(sink *serialSink) float64 {
	c := sink.srv.Counters()
	return float64(br.flows)*(br.zmapNS+br.annotateNS) +
		float64(c.RecordsCreated)*2*br.insertNS +
		float64(c.FlowsEnded)*2*br.updateNS +
		float64(c.ModelRetrains)*br.retrainMS*1e6 +
		float64(sink.sizeAtTicks)*br.expireWalkNS
}

// report fills in the back-half layer metrics.
func (br *backRungs) report(m map[string]float64, sink *serialSink, by map[string]layerTime, events, hours float64) {
	c := sink.srv.Counters()
	m["features.extract_ns_per_flow"] = br.featuresNS
	m["ml.predict_ns_per_flow"] = br.mlNS
	m["zmap.scan_ns_per_host"] = br.zmapNS
	m["zmap.probes_per_host"] = br.probesPerHost
	m["zmap.banner_share"] = br.bannerShare
	m["annotate.batch_ns_per_flow"] = br.annotateNS
	m["enrich.annotate_ns_per_flow"] = br.enrichNS
	m["trainer.retrain_ms"] = br.retrainMS
	m["trainer.retrains"] = float64(c.ModelRetrains)
	m["store.insert_ns_per_record"] = br.insertNS
	m["store.update_ns_per_record"] = br.updateNS
	m["store.expire_calls"] = float64(sink.ticks)
	if sink.ticks > 0 {
		m["store.expire_us_per_call"] = float64(sink.sizeAtTicks) * br.expireWalkNS / 1e3 / float64(sink.ticks)
	}
	m["store.records"] = float64(br.records)
	m["codec.json_encode_ns_per_event"] = br.jsonEncNS
	m["codec.json_decode_ns_per_event"] = br.jsonDecNS
	m["codec.json_bytes_per_event"] = br.jsonBytes
	m["codec.bin_encode_ns_per_event"] = br.binEncNS
	m["codec.bin_decode_ns_per_event"] = br.binDecNS
	m["codec.bin_bytes_per_event"] = br.binBytes
	if events > 0 {
		handle := float64(by["server.handle"].Total)
		serverSpans := handle + float64(by["server.tick"].Total+by["server.flushscans"].Total)
		m["server.handle_ns_per_event"] = handle / events
		m["server.self_ns_per_event"] = (serverSpans - br.explainedNS(sink)) / events
	}
	m["server.tick_ms_per_hour"] = float64(by["server.tick"].Total) / 1e6 / hours
}

// report fills in the read-path metrics of the run the front served.
func (f *feedFront) report(m map[string]float64, by map[string]layerTime) {
	rebuild := by["feedserve.rebuild"]
	m["feedserve.rebuilds"] = float64(rebuild.Count)
	if rebuild.Count > 0 {
		m["feedserve.rebuild_ms"] = float64(rebuild.Total) / 1e6 / float64(rebuild.Count)
	}
	if f.rebuiltItems > 0 {
		m["feedserve.rebuild_ns_per_record"] = float64(rebuild.Total) / float64(f.rebuiltItems)
	}
	m["feedserve.export_mb"] = float64(len(f.cache.Current().ExportNDJSON())) / (1 << 20)
}

func (ar apiRungs) report(m map[string]float64) {
	m["api.records_us_per_req"] = ar.recordsUS
	m["api.revalidate_us_per_req"] = ar.revalidateUS
	m["api.cursor_us_per_req"] = ar.cursorUS
	m["api.export_us_per_req"] = ar.exportUS
}
