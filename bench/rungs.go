package main

import (
	"net/http"
	"time"

	"exiot/internal/annotate"
	"exiot/internal/enrich"
	"exiot/internal/features"
	"exiot/internal/feed"
	"exiot/internal/organizer"
	"exiot/internal/packet"
	"exiot/internal/pcapio"
	"exiot/internal/pipeline"
	"exiot/internal/recog"
	"exiot/internal/replay"
	"exiot/internal/simnet"
	"exiot/internal/store"
	"exiot/internal/trainer"
	"exiot/internal/trw"
	"exiot/internal/wire"
	"exiot/internal/zmap"
)

// A rung times one layer's public functions alone, over the inputs a run
// of the workload captured: ns per op there, times the ops the run made,
// is what the layer cost inside a span that encloses several layers.

// frontRungs are the capture reader, the replayer and the detector.
type frontRungs struct {
	readNS, replayNS         float64 // whole pass over the capture files
	readAllocs               uint64
	processNS, endHourNS     float64 // whole pass over the hours
	trwAllocs                uint64
	trwEvents, activeSources int
}

// runFrontRungs reads the hours once more (from disk or memory).
func (in *ingestInstance) runFrontRungs() (frontRungs, error) {
	var fr frontRungs
	det := trw.NewDetector(trw.Default(), func(e trw.Event) {
		fr.trwEvents++
		if e.Kind == trw.EventSample {
			trw.RecycleSample(e.Sample) // as the sampler does once it has copied them
		}
	})
	detect := func(pkts []packet.Packet, hour time.Time) {
		m0 := markMem()
		start := time.Now()
		for i := range pkts {
			det.Process(&pkts[i])
		}
		mid := time.Now()
		det.EndHour(hour.Add(time.Hour))
		fr.endHourNS += float64(time.Since(mid))
		fr.processNS += float64(mid.Sub(start))
		fr.trwAllocs += markMem().mallocs - m0.mallocs
	}
	if !in.sizes.fromDisk {
		for h, hour := range in.hours {
			detect(in.mem[h], hour)
		}
		fr.activeSources = det.ActiveSources()
		return fr, nil
	}

	// pcapio alone: decode every packet into one reused struct.
	m0 := markMem()
	start := time.Now()
	for _, hour := range in.hours {
		hr, err := pcapio.OpenHour(in.dir, hour)
		if err != nil {
			return fr, err
		}
		var p packet.Packet
		for err = hr.Next(&p); err == nil; err = hr.Next(&p) {
		}
		hr.Close()
	}
	fr.readNS = float64(time.Since(start))
	fr.readAllocs = markMem().mallocs - m0.mallocs

	// The replayer around it, handing the hours to the detector rung; the
	// time inside the callback is the detector's, not the replayer's.
	var inEmit time.Duration
	r := replay.New(replay.Config{Emit: func(pkts []packet.Packet, hour time.Time) error {
		t := time.Now()
		detect(pkts, hour)
		inEmit += time.Since(t)
		return nil
	}})
	start = time.Now()
	if err := r.ReplayDir(in.dir); err != nil {
		return fr, err
	}
	fr.replayNS = float64(time.Since(start) - inEmit)
	fr.activeSources = det.ActiveSources()
	return fr, nil
}

// backRungs are the layers behind Server.HandleEvent and Server.Tick.
type backRungs struct {
	flows                                    int
	featuresNS, mlNS, annotateNS, enrichNS   float64 // per flow
	zmapNS                                   float64 // per host
	probesPerHost, bannerShare               float64
	retrainMS                                float64
	records                                  int
	insertNS, updateNS, expireWalkNS         float64 // per record
	jsonEncNS, jsonDecNS, binEncNS, binDecNS float64 // per event
	jsonBytes, binBytes                      float64 // per event
	batchEvents, flowEndEvents, reportEvents int
}

// runBackRungs times the back-half layers over the events a serial run
// captured and the state its server ended in.
func runBackRungs(w *simnet.World, srv *pipeline.Server, events []stampedEvent) (backRungs, error) {
	var br backRungs
	var batches []*organizer.Batch
	for i := range events {
		switch events[i].e.Kind {
		case pipeline.SamplerBatch:
			batches = append(batches, events[i].e.Batch)
		case pipeline.SamplerFlowEnd:
			br.flowEndEvents++
		case pipeline.SamplerReport:
			br.reportEvents++
		}
	}
	br.batchEvents, br.flows = len(batches), len(batches)

	raws := make([][]float64, len(batches))
	br.featuresNS = timeEach(len(batches), func(i int) {
		raws[i], _ = features.RawVector(batches[i].Sample)
	})

	scanner := zmap.NewScanner(w)
	scanner.Workers = 1
	results := make([]zmap.HostResult, len(batches))
	br.zmapNS = timeEach(len(batches), func(i int) {
		results[i] = scanner.ScanHost(batches[i].IP)
	})
	db := recog.NewDB()
	jobs := make([]annotate.Job, len(batches))
	withBanner := 0
	for i := range batches {
		jobs[i] = annotate.Job{Batch: batches[i], Scan: &results[i], PortsProbed: scanner.NumPorts()}
		if results[i].HasBanner() {
			withBanner++
			if m, ok := db.MatchAny(results[i].BannerTexts()); ok {
				jobs[i].Match = &m
			}
		}
	}
	if len(batches) > 0 {
		br.probesPerHost = float64(scanner.ProbesSent()) / float64(rungRounds*len(batches))
		br.bannerShare = float64(withBanner) / float64(len(batches))
	}

	// The model the run ended with. Flows fed before the first retrain
	// skipped the forest, so this rung reads a little high for them.
	enricher := enrich.New(w.Registry())
	ann := annotate.New(enricher)
	if m := srv.LastModel(); m != nil {
		flat := m.Forest.Flatten()
		ann.SetModel(&annotate.Model{Classifier: flat, Normalizer: m.Normalizer})
		x := make([]float64, features.Dim)
		br.mlNS = timeEach(len(raws), func(i int) {
			if raws[i] != nil {
				flat.PredictProba(m.Normalizer.ApplyInto(x[:0], raws[i]))
			}
		})

		// The retrain the server ran, over the window it had then.
		tr := trainer.New(trainer.Default())
		for _, ex := range srv.Trainer().Snapshot() {
			if !ex.Time.After(m.TrainedAt) {
				tr.Add(ex)
			}
		}
		start := time.Now()
		if _, err := tr.Retrain(m.TrainedAt); err == nil {
			br.retrainMS = ms(time.Since(start))
		}
	}
	if len(jobs) > 0 {
		// AnnotateBatch leaves the vector it extracted in the job; a job
		// that carries one skips the extraction.
		br.annotateNS = timeEach(1, func(int) {
			for i := range jobs {
				jobs[i].Raw = nil
			}
			ann.AnnotateBatch(jobs, 1)
		}) / float64(len(jobs))
	}
	br.enrichNS = timeEach(len(batches), func(i int) {
		var rec feed.Record
		enricher.Annotate(&rec, batches[i].IP, batches[i].Sample)
	})

	docs := srv.Historical().Export()
	br.records = len(docs)
	var coll *store.Collection[feed.Record]
	ids := make([]store.ObjectID, len(docs))
	br.insertNS = timeEach(len(docs), func(i int) {
		if i == 0 {
			coll = store.NewCollection[feed.Record]()
		}
		ids[i] = coll.Insert(docs[i].ID.Time(), docs[i].Value)
	})
	br.updateNS = timeEach(len(docs), func(i int) {
		coll.Update(ids[i], func(r *feed.Record) { r.Active = !r.Active })
	})
	if len(docs) > 0 {
		// Nothing is old enough to go: the walk is all there is.
		const walks = 200
		br.expireWalkNS = timeEach(walks, func(int) { coll.Expire(time.Time{}) }) / float64(len(docs))
	}

	if err := br.codecRungs(events); err != nil {
		return br, err
	}
	return br, nil
}

// codecRungs times both event codecs, each way, over the same events.
func (br *backRungs) codecRungs(events []stampedEvent) error {
	n := len(events)
	if n == 0 {
		return nil
	}
	type encoded struct {
		kind    wire.Kind
		payload []byte
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	js := make([]encoded, n)
	br.jsonEncNS = timeEach(n, func(i int) {
		var err error
		js[i].kind, js[i].payload, err = pipeline.EncodeEvent(events[i].e)
		keep(err)
	})
	br.jsonDecNS = timeEach(n, func(i int) {
		_, err := pipeline.DecodeEvent(wire.Frame{Kind: js[i].kind, Payload: js[i].payload})
		keep(err)
	})
	bin := make([]encoded, n)
	var scratch []byte
	br.binEncNS = timeEach(n, func(i int) {
		kind, payload, err := pipeline.AppendEncodeEvent(scratch[:0], events[i].e)
		keep(err)
		scratch = payload
		bin[i].kind = kind
	})
	// Decoding needs the payloads kept; encode them again, untimed.
	var jsonBytes, binBytes int
	for i := range events {
		_, payload, err := pipeline.AppendEncodeEvent(nil, events[i].e)
		keep(err)
		bin[i].payload = payload
		binBytes += len(payload)
		jsonBytes += len(js[i].payload)
	}
	br.binDecNS = timeEach(n, func(i int) {
		_, err := pipeline.DecodeEvent(wire.Frame{Version: wire.Version2, Kind: bin[i].kind, Payload: bin[i].payload})
		keep(err)
	})
	br.jsonBytes = float64(jsonBytes) / float64(n)
	br.binBytes = float64(binBytes) / float64(n)
	return firstErr
}

// wireRung ships the events over a loopback v2 connection: an off-path
// rung, no workload sends events over the wire.
func wireRung(events []stampedEvent) (nsPerEvent float64, err error) {
	if len(events) == 0 {
		return 0, nil
	}
	recv, err := wire.NewReceiver("127.0.0.1:0", func(wire.Frame) {})
	if err != nil {
		return 0, err
	}
	defer recv.Close()
	sender := wire.NewSenderV2(recv.Addr(), 0, 1)
	defer sender.Close()
	var scratch []byte
	start := time.Now()
	for i := range events {
		kind, payload, err := pipeline.AppendEncodeEvent(scratch[:0], events[i].e)
		if err != nil {
			return 0, err
		}
		scratch = payload
		if err := sender.Queue(kind, events[i].at.Unix(), payload); err != nil {
			return 0, err
		}
	}
	if err := sender.Flush(); err != nil {
		return 0, err
	}
	return float64(time.Since(start)) / float64(len(events)), nil
}

// apiRungs calls the read endpoints in-process on the state a run ended
// in: µs per request, no sockets.
type apiRungs struct{ recordsUS, revalidateUS, cursorUS, exportUS float64 }

func runAPIRungs(h http.Handler) apiRungs {
	const n = 50
	us := func(path, etag string, gzip bool) float64 {
		return timeEach(n, func(int) { serve(h, path, etag, gzip) }) / 1e3
	}
	const records = "/api/v1/records?limit=100"
	etag := serve(h, records, "", false).header.Get("ETag")
	return apiRungs{
		recordsUS:    us(records, "", false),
		revalidateUS: us(records, etag, false),
		cursorUS:     us("/api/v1/records?cursor=0&limit=500", "", false),
		exportUS:     us("/api/v1/export", "", true),
	}
}
