// Package annotate implements eX-IoT's Annotate Module: it pre-processes
// each organized flow into the 120-dimensional Table II feature vector,
// applies the latest classifier to label the source IoT / non-IoT with a
// prediction score, and enriches the resulting CTI record with
// geolocation, WHOIS, rDNS, scan-tool fingerprints, per-flow traffic
// statistics, and the Benign flag for known research scanners.
package annotate

import (
	"fmt"
	"math"
	"sync"
	"time"

	"exiot/internal/device"
	"exiot/internal/enrich"
	"exiot/internal/fanout"
	"exiot/internal/features"
	"exiot/internal/feed"
	"exiot/internal/ml"
	"exiot/internal/organizer"
	"exiot/internal/recog"
	"exiot/internal/telemetry"
	"exiot/internal/trace"
	"exiot/internal/zmap"
)

// Telemetry handles for the classification stage (see
// docs/OPERATIONS.md): one count per labeled record, split by which
// authority produced the label — a banner fingerprint rule, the
// retrained random forest, or neither (bootstrap).
var metClassified = telemetry.Default().CounterVec("exiot_classify_records_total",
	"Flows labeled IoT/non-IoT, by label source (banner|model|none).", "source")

// Label sources beyond those in the feed package.
const (
	// SourceNone marks records emitted before any model has trained
	// (bootstrap period).
	SourceNone = "none"
)

// Model is the classifier bundle the annotate module applies: the
// trained forest plus the training-anchored normalizer.
type Model struct {
	Classifier ml.Classifier
	Normalizer *features.Normalizer
}

// Annotator labels and enriches organized flows.
type Annotator struct {
	enricher *enrich.Enricher

	mu    sync.RWMutex
	model *Model
}

// New creates an annotator; the model is installed later by the
// update-classifier module.
func New(enricher *enrich.Enricher) *Annotator {
	return &Annotator{enricher: enricher}
}

// SetModel atomically installs a new classifier (the daily retrain).
func (a *Annotator) SetModel(m *Model) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.model = m
}

// HasModel reports whether a classifier is installed.
func (a *Annotator) HasModel() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.model != nil
}

// Annotate turns one organized batch (plus its active-measurement
// results and optional banner fingerprint) into a CTI record. The banner
// label, when present, takes precedence over the model prediction — it is
// the ground truth the model itself trains on.
func (a *Annotator) Annotate(b *organizer.Batch, scan *zmap.HostResult, match *recog.Match) (feed.Record, error) {
	jobs := []Job{{Batch: b, Scan: scan, Match: match}}
	recs, errs := a.AnnotateBatch(jobs, 1)
	return recs[0], errs[0]
}

// Job is one flow awaiting annotation.
type Job struct {
	Batch *organizer.Batch
	Scan  *zmap.HostResult
	Match *recog.Match
	// Raw is an output: AnnotateBatch fills in the 120-dim feature vector
	// it extracted, so callers can reuse it (the trainer retains it for
	// banner-labeled flows).
	Raw []float64
	// PortsProbed is the active-measurement port count per host
	// (provenance; 0 when the caller has no scanner).
	PortsProbed int
	// Trace is the flow's live trace (nil when untraced). Annotation
	// records "annotate" and "enrich" spans on it; the record's
	// provenance is built either way.
	Trace *trace.Flow
}

// AnnotateBatch annotates many flows at once: feature extraction,
// banner labeling, and enrichment fan out across up to workers
// goroutines (0 = GOMAXPROCS, 1 = the caller's), and flows without a
// banner label are scored through the classifier's batch path in one
// call. Record i is exactly what
// Annotate(jobs[i]) would produce — the model is read once for the whole
// batch (retrains never happen mid-flush), every per-record computation
// is pure, and results land by index — so the parallel feed path stays
// byte-identical to the serial one.
func (a *Annotator) AnnotateBatch(jobs []Job, workers int) ([]feed.Record, []error) {
	recs := make([]feed.Record, len(jobs))
	errs := make([]error, len(jobs))
	needModel := make([]bool, len(jobs))
	a.mu.RLock()
	m := a.model
	a.mu.RUnlock()

	// One extraction scratch per goroutine, warm after its first flow.
	scratches := make([]features.Scratch, fanout.Size(len(jobs), workers))
	fanout.Run(len(jobs), workers, func(w, i int) {
		scratch := &scratches[w]
		j := &jobs[i]
		var annStart time.Time
		if j.Trace != nil {
			annStart = time.Now()
		}
		// One allocation per flow for the vector itself — it is retained
		// downstream — but the extraction columns are reused.
		raw, err := scratch.RawVectorInto(nil, j.Batch.Sample)
		if err != nil {
			errs[i] = fmt.Errorf("annotate %s: %w", j.Batch.IPString, err)
			return
		}
		j.Raw = raw
		rec := feed.Record{
			IP:         j.Batch.IPString,
			FirstSeen:  j.Batch.FirstSeen,
			DetectedAt: j.Batch.DetectedAt,
			LastSeen:   lastSeen(j.Batch),
			Active:     true,
		}
		if j.Scan != nil {
			rec.OpenPorts = j.Scan.OpenPorts
			rec.Banners = j.Scan.Banners
		}
		switch {
		case j.Match != nil:
			metClassified.With("banner").Inc()
			rec.LabelSource = feed.SourceBanner
			if j.Match.IoT {
				rec.Label = feed.LabelIoT
				rec.Score = 1
			} else {
				rec.Label = feed.LabelNonIoT
				rec.Score = 0
			}
			rec.Vendor = j.Match.Vendor
			rec.DeviceType = j.Match.Type
			rec.Model = j.Match.Model
			rec.Firmware = j.Match.Firmware
		case m != nil:
			needModel[i] = true
		default:
			// Bootstrap: no model yet; stay conservative.
			metClassified.With("none").Inc()
			rec.Label = feed.LabelNonIoT
			rec.Score = 0.5
			rec.LabelSource = SourceNone
		}
		var enrichStart time.Time
		if j.Trace != nil {
			enrichStart = time.Now()
		}
		a.enricher.Annotate(&rec, j.Batch.IP, j.Batch.Sample)
		sources := enrichSources(&rec)
		rec.Provenance = &feed.Provenance{
			TraceID:       provenanceID(j.Batch.TraceID),
			TriggerHour:   j.Batch.DetectedAt.Truncate(time.Hour),
			SampleSize:    len(j.Batch.Sample),
			PortsProbed:   j.PortsProbed,
			EnrichSources: sources,
		}
		if j.Scan != nil {
			rec.Provenance.OpenPorts = len(j.Scan.OpenPorts)
			rec.Provenance.BannersGrabbed = len(j.Scan.Banners)
		}
		if j.Match != nil {
			rec.Provenance.BannerRule = j.Match.Rule
		}
		if j.Trace != nil {
			j.Trace.Span("enrich", enrichStart, enrichStart,
				trace.Str("sources", joinSources(sources)))
			j.Trace.SpanAt("annotate", annStart, annStart, enrichStart,
				trace.Str("label_source", rec.LabelSource))
		}
		recs[i] = rec
	})

	// Model inference for the unlabeled flows, batched through the
	// flattened forest when available.
	if m != nil {
		var idx []int
		for i := range jobs {
			if needModel[i] {
				idx = append(idx, i)
			}
		}
		if len(idx) > 0 {
			X := make([][]float64, len(idx))
			backing := make([]float64, len(idx)*features.Dim)
			for k, i := range idx {
				dst := backing[k*features.Dim : k*features.Dim : (k+1)*features.Dim]
				X[k] = m.Normalizer.ApplyInto(dst, jobs[i].Raw)
			}
			scores := make([]float64, len(idx))
			if bc, ok := m.Classifier.(ml.BatchClassifier); ok {
				scores = bc.PredictProbaBatch(X, scores)
			} else {
				for k, x := range X {
					scores[k] = m.Classifier.PredictProba(x)
				}
			}
			for k, i := range idx {
				metClassified.With("model").Inc()
				rec := &recs[i]
				rec.Score = scores[k]
				rec.LabelSource = feed.SourceModel
				if scores[k] >= 0.5 {
					rec.Label = feed.LabelIoT
				} else {
					rec.Label = feed.LabelNonIoT
				}
			}
		}
	}

	for i := range recs {
		if errs[i] != nil {
			continue
		}
		if recs[i].Label == feed.LabelNonIoT && recs[i].DeviceType == "" {
			// The paper's latency experiment shows non-IoT sources
			// surfacing as "Desktop (non-IoT)" with the detected tool.
			recs[i].DeviceType = string(device.TypeDesktop)
		}
		// The vote margin is only final after batched inference, hence
		// here rather than in prepare. |2·0.5−1| = 0 for bootstrap
		// records, 1 for banner ground truth.
		recs[i].Provenance.VoteMargin = math.Abs(2*recs[i].Score - 1)
	}
	return recs, errs
}

// provenanceID renders a trace ID for provenance ("" when unset, so the
// field is omitted from pre-tracing records).
func provenanceID(id trace.ID) string {
	if id == 0 {
		return ""
	}
	return id.String()
}

// enrichSources lists the enrichment lookups that contributed fields to
// a record, in a fixed order (the list is part of the deterministic
// feed output).
func enrichSources(rec *feed.Record) []string {
	var out []string
	if rec.CountryCode != "" || rec.Country != "" {
		out = append(out, "geo")
	}
	if rec.ASN != 0 || rec.ISP != "" {
		out = append(out, "whois")
	}
	if rec.RDNS != "" {
		out = append(out, "rdns")
	}
	if rec.Tool != "" {
		out = append(out, "tool-fingerprint")
	}
	if rec.Benign {
		out = append(out, "benign-list")
	}
	return out
}

// joinSources renders the source list for a span attribute.
func joinSources(sources []string) string {
	if len(sources) == 0 {
		return "none"
	}
	s := sources[0]
	for _, x := range sources[1:] {
		s += "," + x
	}
	return s
}

func lastSeen(b *organizer.Batch) time.Time {
	if len(b.Sample) == 0 {
		return b.DetectedAt
	}
	return b.Sample[len(b.Sample)-1].Timestamp
}
