package trw

import (
	"math"
	"testing"
	"time"

	"exiot/internal/packet"
)

// The Detector's packet threshold is the darknet case of the sequential
// probability ratio test behind Threshold Random Walk (Jung, Paxson,
// Berger, Balakrishnan, Oakland 2004; refs [54, 55] of the paper). On a
// darknet every connection attempt fails, so each packet moves the
// log-likelihood ratio up by ln(θ1/θ0) and the test declares a scanner
// after N = ⌈ln((1−β)/α) / ln(θ1/θ0)⌉ packets: TRW is a packet counter.
// At Jung et al.'s θ0 = 0.2, θ1 = 0.8 and β = 0.01, the paper's 100
// packets is the false-positive rate α = (1−β)/(θ1/θ0)^100.
const sprtTheta0, sprtTheta1, sprtBeta = 0.2, 0.8, 0.01

// sprtEps absorbs the last bits of the two rounded logarithms.
const sprtEps = 1e-9

// darknetSPRT returns the α implied by the Detector's threshold n, the
// upper bound ln η1 = ln((1−β)/α) and the per-failure step ln(θ1/θ0).
func darknetSPRT() (n int, alpha, upper, step float64) {
	n = Default().DetectionThreshold
	alpha = (1 - sprtBeta) / math.Pow(sprtTheta1/sprtTheta0, float64(n))
	return n, alpha, math.Log((1 - sprtBeta) / alpha), math.Log(sprtTheta1 / sprtTheta0)
}

// sprtCrossing is the packet at which a walk of failures first reaches
// the upper bound.
func sprtCrossing(upper, step float64, limit int) int {
	walk := 0.0
	for packet := 1; packet <= limit; packet++ {
		if walk += step; walk >= upper-sprtEps {
			return packet
		}
	}
	return 0
}

// TestParamsForPaperThreshold: 100 packets at ln 4 per step imply an
// astronomically small α, so the paper's operating point is extremely
// conservative about false positives, the right trade for an
// operational feed.
func TestParamsForPaperThreshold(t *testing.T) {
	_, alpha, _, _ := darknetSPRT()
	if !(alpha > 0) || alpha > 1e-50 {
		t.Errorf("implied α = %g, want positive and astronomically small", alpha)
	}
}

func TestDarknetThresholdFormula(t *testing.T) {
	n, alpha, upper, step := darknetSPRT()
	if got := int(math.Ceil(upper/step - sprtEps)); got != n || n != 100 {
		t.Fatalf("the SPRT at α = %g declares a scanner after %d packets; the Detector counts %d, the paper 100", alpha, got, n)
	}
}

func TestDarknetFailuresReachScannerVerdict(t *testing.T) {
	n, _, upper, step := darknetSPRT()
	if got := sprtCrossing(upper, step, 2*n); got != n {
		t.Fatalf("the walk of failures crosses ln η1 = %.6f at packet %d, want %d and not %d", upper, got, n, n-1)
	}
}

// TestSPRTAgreesWithDetectorCounter feeds one source's probes to the
// shipped Detector and checks that it reports the scanner at the packet
// where the SPRT walk crosses, no earlier and no later.
func TestSPRTAgreesWithDetectorCounter(t *testing.T) {
	n, _, upper, step := darknetSPRT()
	want := sprtCrossing(upper, step, 2*n)
	src := packet.MustParseIP("203.0.113.9")
	pkts := steadyStream(src, t0, 2*n, time.Second)
	detected := false
	d := NewDetector(Default(), func(e Event) { detected = detected || e.Kind == EventScannerDetected })
	detectedAt := 0
	for i := range pkts {
		if d.Process(&pkts[i]); detected {
			detectedAt = i + 1
			break
		}
	}
	if detectedAt != want || want != n {
		t.Fatalf("the Detector reports at packet %d, the SPRT walk crosses at %d, the threshold is %d", detectedAt, want, n)
	}
}
