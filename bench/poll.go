package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"exiot/internal/api"
	"exiot/internal/feed"
	"exiot/internal/feedserve"
	"exiot/internal/store"
)

// consumer-poll's sizes. Changing one starts a new baseline.
const (
	pollRecords = 20_000
	// The writer's schedule: every writeEvery, writeBatch inserts and
	// writeBatch updates that flip Active.
	writeEvery = 250 * time.Millisecond
	writeBatch = 20
	// openRate is phase B's fixed arrival rate, requests per second, and
	// openBurst how many fall due at the same instant: consumers poll on
	// timers, and timers line up. A burst also keeps the measured delay
	// about the server — the requests of a burst queue behind each other —
	// where evenly spaced arrivals a millisecond apart would mostly time
	// how late a sleeping goroutine wakes up.
	openRate  = 1000
	openBurst = 4
	// rateWindow is how long phase A counts completions for one rate.
	rateWindow = 500 * time.Millisecond
	// closedShare of a run is phase A (closed loop), the rest phase B.
	closedShare = 0.4
	// Every response gets the cheap checks; every deepCheckEvery-th body
	// is kept and parsed (or gunzipped) in full once the run is over.
	deepCheckEvery = 200
)

// The request mix of docs/FEED_CONSUMERS.md's consumers, in percent.
const (
	kindRevalidate = iota // If-None-Match on the consumer's standing query
	kindCursor            // ?cursor=N&limit=500 from where it left off
	kindFiltered          // ?limit=100&country=
	kindExport            // bulk export, gzip
	numKinds
)

var kindNames = [numKinds]string{"revalidate", "cursor", "filtered", "export"}
var kindPercent = [numKinds]int{70, 20, 8, 2}

var pollCountries = []string{"CN", "US", "BR", "IN", "RU", "VN", "KR", "TW"}
var pollVendors = []string{"MikroTik", "Hikvision", "Dahua", "TP-Link", "Huawei", ""}

var pollT0 = time.Date(2020, 12, 9, 0, 0, 0, 0, time.UTC)

// pollRecord is feed record i of the seeded collection.
func pollRecord(rng *rand.Rand, i int) feed.Record {
	first := pollT0.Add(time.Duration(i) * time.Second)
	rec := feed.Record{
		IP:          fmt.Sprintf("100.%d.%d.%d", i/65536%256, i/256%256, i%256),
		FirstSeen:   first,
		DetectedAt:  first.Add(time.Duration(60+rng.Intn(600)) * time.Second),
		LastSeen:    first.Add(time.Duration(900+rng.Intn(3600)) * time.Second),
		AppearedAt:  first.Add(4 * time.Hour),
		Active:      rng.Intn(2) == 0,
		Label:       feed.LabelNonIoT,
		Score:       rng.Float64(),
		LabelSource: feed.SourceModel,
		CountryCode: pollCountries[rng.Intn(len(pollCountries))],
		ASN:         4000 + rng.Intn(200),
		Vendor:      pollVendors[rng.Intn(len(pollVendors))],
		TargetPorts: map[uint16]int{23: 100 + rng.Intn(100), 2323: rng.Intn(40), 80: rng.Intn(20)},
		ScanRatePPS: 1 + 9*rng.Float64(),
	}
	if rec.Score >= 0.5 {
		rec.Label = feed.LabelIoT
	}
	return rec
}

// collSource serves the API from a bare collection with the pipeline's
// query semantics (filter in insertion order, the most recent Limit win).
type collSource struct {
	coll *store.Collection[feed.Record]
}

func (s collSource) Records(q api.Query) []feed.Record {
	out := s.coll.Find(func(r feed.Record) bool { return q.Matches(&r) })
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[len(out)-q.Limit:]
	}
	return out
}

func (s collSource) RecordByIP(ip string) (feed.Record, bool) {
	m := s.coll.Find(func(r feed.Record) bool { return r.IP == ip })
	if len(m) == 0 {
		return feed.Record{}, false
	}
	return m[len(m)-1], true
}

func (s collSource) Snapshot() api.Snapshot { return api.Snapshot{} }

// pollInstance is consumer-poll after setup: a populated historical
// collection behind the snapshot cache and the API.
type pollInstance struct {
	rng      *rand.Rand // the writer's: continues the record sequence
	coll     *store.Collection[feed.Record]
	ids      []store.ObjectID
	cache    *feedserve.Cache
	api      *api.Server
	schedule []uint8 // request kinds, by request index
	country  []uint8 // the filtered requests' country, by request index

	heapBefore float64
	digest     string
}

func setupConsumerPoll(seed int64, _ string) (instance, error) {
	return setupPoll(seed, pollRecords), nil
}

func setupPoll(seed int64, records int) *pollInstance {
	p := &pollInstance{rng: rand.New(rand.NewSource(seed)), heapBefore: liveHeapMB()}
	p.coll = store.NewCollection[feed.Record]()
	for i := 0; i < records; i++ {
		p.ids = append(p.ids, p.coll.Insert(pollT0.Add(time.Duration(i)*time.Second), pollRecord(p.rng, i)))
	}
	p.cache = feedserve.New(p.coll, feedserve.Config{})
	p.api = api.NewServer(collSource{p.coll}, nil)
	p.api.AddKey(apiKey, "bench")
	p.api.SetFeedCache(p.cache)
	p.digest = sha256Hex(p.cache.Current().ExportNDJSON())

	mix := rand.New(rand.NewSource(seed ^ 0x6d6978))
	p.schedule = make([]uint8, 1<<16)
	p.country = make([]uint8, len(p.schedule))
	for i := range p.schedule {
		roll := mix.Intn(100)
		for k, pct := range kindPercent {
			if roll < pct {
				p.schedule[i] = uint8(k)
				break
			}
			roll -= pct
		}
		p.country[i] = uint8(mix.Intn(len(pollCountries)))
	}
	return p
}

func (p *pollInstance) close() error {
	p.cache.Close()
	return nil
}

// pollClient is one consumer: one keep-alive connection, its validator
// and its cursor.
type pollClient struct {
	http   *http.Client
	base   string
	etag   string
	cursor uint64
	buf    bytes.Buffer
}

const standingQuery = "/api/v1/records?limit=100"

// reply is what one request came back with.
type reply struct {
	kind   int
	status int
	bytes  int
	wrong  string // "" when the response is what the API promises
	// sample is a copy of the body, kept for the full parse after the run.
	sample []byte
}

// do sends request i of the schedule and checks the response.
func (c *pollClient) do(p *pollInstance, i int, spanHeader string) reply {
	slot := i % len(p.schedule)
	r := reply{kind: int(p.schedule[slot])}
	path, sent, gz := standingQuery, "", false
	switch r.kind {
	case kindRevalidate:
		sent = c.etag
	case kindCursor:
		path = "/api/v1/records?cursor=" + strconv.FormatUint(c.cursor, 10) + "&limit=" + strconv.Itoa(pageLimit)
	case kindFiltered:
		path = "/api/v1/records?limit=100&country=" + pollCountries[p.country[slot]]
	case kindExport:
		path, gz = "/api/v1/export", true
	}
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		r.wrong = err.Error()
		return r
	}
	req.Header.Set("X-API-Key", apiKey)
	if sent != "" {
		req.Header.Set("If-None-Match", sent)
	}
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	if spanHeader != "" {
		req.Header.Set(spanHeaderName, spanHeader)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		r.wrong = err.Error()
		return r
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := c.buf.Bytes()
	r.status, r.bytes = resp.StatusCode, len(body)
	etag := resp.Header.Get("ETag")
	switch {
	case err != nil:
		r.wrong = err.Error()
	case etag == "":
		r.wrong = "no ETag"
	case resp.StatusCode == http.StatusNotModified:
		// Only a validator that is still current may be answered 304.
		if sent == "" || etag != sent || len(body) != 0 {
			r.wrong = fmt.Sprintf("304 to validator %q with ETag %q and %d body bytes", sent, etag, len(body))
		}
	case resp.StatusCode != http.StatusOK:
		r.wrong = fmt.Sprintf("status %d", resp.StatusCode)
	case resp.ContentLength >= 0 && int(resp.ContentLength) != len(body):
		r.wrong = fmt.Sprintf("Content-Length %d, body %d", resp.ContentLength, len(body))
	case r.kind == kindExport:
		if len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
			r.wrong = "export is not gzip"
		}
	case !bytes.HasPrefix(body, []byte(`{"count":`)) || !bytes.HasSuffix(body, []byte("}\n")):
		r.wrong = "records body is not the documented object"
	}
	if r.wrong != "" {
		return r
	}
	switch r.kind {
	case kindRevalidate:
		c.etag = etag
	case kindCursor:
		_, _, next, err := pageHeader(body)
		if err != nil {
			r.wrong = "cursor page header: " + err.Error()
		}
		c.cursor = next
	}
	if i%deepCheckEvery == 0 && r.status == http.StatusOK {
		r.sample = append([]byte(nil), body...)
	}
	return r
}

// deepCheck parses a whole body: JSON for records, gzip'd NDJSON for the
// export.
func deepCheck(kind int, body []byte) string {
	if kind != kindExport {
		if !json.Valid(body) {
			return "records body is not valid JSON"
		}
		return ""
	}
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return "export: " + err.Error()
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return "export: " + err.Error()
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		if !json.Valid(line) {
			return "export holds a line that is not JSON"
		}
	}
	return ""
}

// closedLoop runs do on each of workers goroutines back to back until d
// has passed, handing out request indices from *next. It returns how
// many requests completed.
func closedLoop(d time.Duration, workers int, next *atomic.Int64, do func(worker, i int) time.Time) int {
	var wg sync.WaitGroup
	var done atomic.Int64
	deadline := time.Now().Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				do(w, int(next.Add(1)-1))
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return int(done.Load())
}

// openLoop issues n requests on a fixed schedule — rate a second, in
// bursts of burst that fall due together — from workers goroutines,
// whether or not earlier ones have come back. do(worker, k) returns the instant request k's response
// was complete. Each latency is taken from the request's due time, so the
// wait a stall imposes on the requests behind it counts; lateMax is how
// far behind its schedule the generator itself ever started a request.
func openLoop(start time.Time, rate float64, burst, n, workers int, do func(worker, k int) time.Time) (latencies []time.Duration, lateMax time.Duration) {
	latencies = make([]time.Duration, n)
	var next, late atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(float64(k/burst*burst) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				if behind := int64(time.Since(due)); behind > late.Load() {
					// Workers race here; the maximum only ever grows.
					for cur := late.Load(); behind > cur && !late.CompareAndSwap(cur, behind); cur = late.Load() {
					}
				}
				latencies[k] = do(w, k).Sub(due)
			}
		}(w)
	}
	wg.Wait()
	return latencies, time.Duration(late.Load())
}

// pollRun is one serving session: listener, rebuild loop, writer and
// clients, and what they counted.
type pollRun struct {
	p       *pollInstance
	rec     *recorder
	ln      net.Listener
	server  *http.Server
	served  chan error
	clients []*pollClient
	next    atomic.Int64

	stopWriter chan struct{}
	writerDone chan struct{}

	// tracing turns span recording on for the phases that want it.
	tracing atomic.Bool

	mu       sync.Mutex
	samples  []reply
	requests [numKinds]int
	notMod   int
	bytes    int64
	checks

	insertNS, updateNS int64
	inserts, updates   int
	rebuilds           int
	rebuildNS          int64
	rebuiltItems       int64
}

const spanHeaderName = "X-Bench-Span"

// start opens the loopback listener, starts the cache's debounced
// rebuild loop and the writer, and connects workers clients.
func (p *pollInstance) start(workers int, rec *recorder) (*pollRun, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	run := &pollRun{p: p, rec: rec, ln: ln, served: make(chan error, 1),
		stopWriter: make(chan struct{}), writerDone: make(chan struct{})}
	var handler http.Handler = p.api
	if rec != nil {
		handler = http.HandlerFunc(run.tracedServe)
	}
	// The cache's hooks cannot be removed and its loop cannot be started
	// twice: an instance serves one run.
	run.server = &http.Server{Handler: handler}
	go func() { run.served <- run.server.Serve(ln) }()

	p.cache.OnRebuild(run.onRebuild)
	p.cache.Start()
	go run.write()

	caughtUp := p.cache.Current().LastSeq()
	for w := 0; w < workers; w++ {
		run.clients = append(run.clients, &pollClient{
			base:   "http://" + ln.Addr().String(),
			cursor: caughtUp,
			http: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}},
		})
	}
	return run, nil
}

// stop ends the writer and the server, waits for both, and parses the
// sampled bodies in full.
func (r *pollRun) stop() error {
	close(r.stopWriter)
	<-r.writerDone
	for _, c := range r.clients {
		c.http.CloseIdleConnections()
	}
	err := r.server.Close()
	<-r.served
	for _, s := range r.samples {
		wrong := deepCheck(s.kind, s.sample)
		r.check(wrong == "", "sampled %s response: %s", kindNames[s.kind], wrong)
	}
	r.samples = nil
	return err
}

// onRebuild is the cache's hook. A snapshot is stamped once the store has
// been exported, so the time since is its marshal, sort, hash and gzip.
func (r *pollRun) onRebuild(snap *feedserve.Snapshot) {
	now := time.Now()
	r.mu.Lock()
	r.rebuilds++
	r.rebuildNS += int64(now.Sub(snap.BuiltAt()))
	r.rebuiltItems += int64(snap.Len())
	r.mu.Unlock()
	r.rec.add("feedserve.rebuild", 0, 0, snap.BuiltAt(), now)
}

// write applies the writer's fixed schedule until stopped.
func (r *pollRun) write() {
	defer close(r.writerDone)
	p := r.p
	tick := time.NewTicker(writeEvery)
	defer tick.Stop()
	for round := 0; ; round++ {
		select {
		case <-r.stopWriter:
			return
		case <-tick.C:
		}
		start := time.Now()
		for j := 0; j < writeBatch; j++ {
			i := len(p.ids)
			p.ids = append(p.ids, p.coll.Insert(pollT0.Add(time.Duration(i)*time.Second), pollRecord(p.rng, i)))
		}
		mid := time.Now()
		for j := 0; j < writeBatch; j++ {
			p.coll.Update(p.ids[(round*writeBatch+j)%len(p.ids)], func(rec *feed.Record) { rec.Active = !rec.Active })
		}
		end := time.Now()
		r.mu.Lock()
		r.insertNS += int64(mid.Sub(start))
		r.updateNS += int64(end.Sub(mid))
		r.inserts += writeBatch
		r.updates += writeBatch
		r.mu.Unlock()
		r.rec.add("store.write", 0, 0, start, end)
	}
}

// tracedServe records the handler's side of a request as a child of the
// client's span, whose id and trace the request carries in a header.
func (r *pollRun) tracedServe(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	r.p.api.ServeHTTP(w, req)
	end := time.Now()
	if !r.tracing.Load() {
		return
	}
	var kind int
	var trace, parent int32
	if _, err := fmt.Sscanf(req.Header.Get(spanHeaderName), "%d,%d,%d", &kind, &trace, &parent); err == nil && kind < numKinds {
		r.rec.add("api."+kindNames[kind], trace, parent, start, end)
	}
}

// request sends request i from client w, accounts for the reply, and
// returns the instant the response was complete.
func (r *pollRun) request(w, i int) time.Time {
	var header string
	var id int32
	if r.tracing.Load() {
		kind := int(r.p.schedule[i%len(r.p.schedule)])
		id = r.rec.open("client."+kindNames[kind], int32(i+1), 0)
		header = fmt.Sprintf("%d,%d,%d", kind, i+1, id)
	}
	rep := r.clients[w].do(r.p, i, header)
	done := time.Now()
	r.rec.close(id)
	r.mu.Lock()
	if rep.sample != nil {
		r.samples = append(r.samples, rep)
	}
	r.requests[rep.kind]++
	r.bytes += int64(rep.bytes)
	if rep.status == http.StatusNotModified {
		r.notMod++
	}
	r.check(rep.wrong == "", "request %d (%s): %s", i, kindNames[rep.kind], rep.wrong)
	r.mu.Unlock()
	return done
}

func (r *pollRun) total() int {
	n := 0
	for _, k := range r.requests {
		n += k
	}
	return n
}

// phaseA is the closed loop: every client sends its next request as soon
// as the last came back. It returns requests per second for each window
// of rateWindow. A snapshot rebuild takes a processor for a good part of
// the window it falls in, so windows come in two kinds; with the default
// debounce three in four hold no rebuild, and their median is steady
// where the mean over the phase follows every stall of the machine.
func (r *pollRun) phaseA(d time.Duration, workers int) []float64 {
	windows := max(1, int(d/rateWindow))
	rates := make([]float64, windows)
	for i := range rates {
		start := time.Now()
		n := closedLoop(d/time.Duration(windows), workers, &r.next, r.request)
		rates[i] = float64(n) / time.Since(start).Seconds()
	}
	return rates
}

// phaseB is the open loop at openRate for d, sent by workers clients.
func (r *pollRun) phaseB(d time.Duration, workers int) (latencies []float64, lateMax time.Duration) {
	n := int(d.Seconds() * openRate)
	base := int(r.next.Add(int64(n))) - n
	lat, lateMax := openLoop(time.Now(), openRate, openBurst, n, workers, func(w, k int) time.Time {
		return r.request(w, base+k)
	})
	latencies = make([]float64, n)
	for i, l := range lat {
		latencies[i] = ms(l)
	}
	return latencies, lateMax
}

// finalCheck stops nothing: with the writer already stopped it rebuilds
// once more and compares the snapshot's export with a walk of the store —
// the bytes the API serves without a cache.
func (p *pollInstance) finalCheck(c *checks) {
	snap := p.cache.Rebuild()
	walk := api.NewServer(collSource{p.coll}, nil)
	walk.AddKey(apiKey, "bench")
	resp := serve(walk, "/api/v1/export", "", false)
	c.check(resp.code == http.StatusOK && bytes.Equal(resp.body.Bytes(), snap.ExportNDJSON()),
		"the snapshot export (%d bytes) differs from the store walk (%d bytes, status %d)",
		len(snap.ExportNDJSON()), resp.body.Len(), resp.code)
}

func (p *pollInstance) measure(d time.Duration) (*observation, error) {
	// One consumer on one connection: the load generator and the handler
	// take turns, and only the writer and the rebuild loop run beside
	// them (see README.md, "Why Workers 1").
	const workers = 1
	run, err := p.start(workers, nil)
	if err != nil {
		return nil, err
	}
	obs := &observation{repeats: 1, digest: p.digest}
	m0 := markMem()
	closed := time.Duration(closedShare * float64(d))
	obs.rates = run.phaseA(closed, workers)
	obs.latencies, _ = run.phaseB(d-closed, workers)
	m1 := markMem()
	if err := run.stop(); err != nil {
		return nil, err
	}
	obs.ops = float64(run.total())
	obs.addAllocs(m0, m1)
	obs.merge(run.checks)
	p.finalCheck(&obs.checks)
	// Store, snapshot and server are reachable through p.
	obs.liveHeapMB = liveHeapMB() - p.heapBefore
	runtime.KeepAlive(p)
	return obs, nil
}
