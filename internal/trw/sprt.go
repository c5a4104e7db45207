package trw

import (
	"fmt"
	"math"
)

// This file implements the sequential probability ratio test (SPRT)
// underlying Threshold Random Walk scan detection (Jung, Paxson, Berger,
// Balakrishnan — Oakland 2004), and its specialization to darknet
// traffic, where every connection attempt fails by construction. On a
// telescope the likelihood ratio climbs by a constant per packet, so the
// SPRT degenerates into a packet-count threshold — the theoretic result
// of the authors' prior work (refs [54, 55] of the paper) that justifies
// the Detector's simple counter.

// SPRTParams are the test's operating parameters.
type SPRTParams struct {
	// Theta0 is P(connection fails | benign host).
	Theta0 float64
	// Theta1 is P(connection fails | scanner).
	Theta1 float64
	// Alpha is the acceptable false-positive rate.
	Alpha float64
	// Beta is the acceptable false-negative rate.
	Beta float64
}

// DefaultSPRTParams returns Jung et al.'s canonical operating point.
func DefaultSPRTParams() SPRTParams {
	return SPRTParams{Theta0: 0.2, Theta1: 0.8, Alpha: 1e-5, Beta: 0.01}
}

// Validate checks parameter sanity.
func (p SPRTParams) Validate() error {
	if p.Theta0 <= 0 || p.Theta0 >= 1 || p.Theta1 <= 0 || p.Theta1 >= 1 {
		return fmt.Errorf("trw: theta out of (0,1): θ0=%v θ1=%v", p.Theta0, p.Theta1)
	}
	if p.Theta1 <= p.Theta0 {
		return fmt.Errorf("trw: need θ1 > θ0, got θ0=%v θ1=%v", p.Theta0, p.Theta1)
	}
	if p.Alpha <= 0 || p.Alpha >= 1 || p.Beta <= 0 || p.Beta >= 1 {
		return fmt.Errorf("trw: error rates out of (0,1): α=%v β=%v", p.Alpha, p.Beta)
	}
	return nil
}

// upperLog returns ln η1 = ln((1−β)/α), the scanner decision boundary.
func (p SPRTParams) upperLog() float64 {
	return math.Log((1 - p.Beta) / p.Alpha)
}

// lowerLog returns ln η0 = ln(β/(1−α)), the benign decision boundary.
func (p SPRTParams) lowerLog() float64 {
	return math.Log(p.Beta / (1 - p.Alpha))
}

// failStep returns the log-likelihood increment of one failed connection.
func (p SPRTParams) failStep() float64 {
	return math.Log(p.Theta1 / p.Theta0)
}

// successStep returns the (negative) increment of one successful
// connection.
func (p SPRTParams) successStep() float64 {
	return math.Log((1 - p.Theta1) / (1 - p.Theta0))
}

// Verdict is the SPRT's state for one source.
type Verdict int

// SPRT outcomes.
const (
	// VerdictPending means neither boundary has been crossed.
	VerdictPending Verdict = iota
	// VerdictScanner means the walk crossed the upper boundary.
	VerdictScanner
	// VerdictBenign means the walk crossed the lower boundary.
	VerdictBenign
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictScanner:
		return "scanner"
	case VerdictBenign:
		return "benign"
	default:
		return "pending"
	}
}

// SPRT is one source's sequential test state.
type SPRT struct {
	params    SPRTParams
	logLambda float64
	verdict   Verdict
	observed  int
}

// NewSPRT starts a test with the given parameters.
func NewSPRT(params SPRTParams) (*SPRT, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &SPRT{params: params}, nil
}

// ObserveFailure records one failed connection attempt (on a darknet,
// every packet) and returns the updated verdict.
func (s *SPRT) ObserveFailure() Verdict {
	return s.observe(s.params.failStep())
}

// ObserveSuccess records one successful connection attempt and returns
// the updated verdict.
func (s *SPRT) ObserveSuccess() Verdict {
	return s.observe(s.params.successStep())
}

func (s *SPRT) observe(step float64) Verdict {
	if s.verdict != VerdictPending {
		return s.verdict // decisions are terminal
	}
	s.observed++
	s.logLambda += step
	// Tolerant boundary compares: the walk accumulates the step N times
	// while the boundary is computed in closed form, so the two can
	// differ by float rounding at the crossing observation.
	upper, lower := s.params.upperLog(), s.params.lowerLog()
	eps := 1e-9 * math.Max(1, math.Abs(upper))
	switch {
	case s.logLambda >= upper-eps:
		s.verdict = VerdictScanner
	case s.logLambda <= lower+eps:
		s.verdict = VerdictBenign
	}
	return s.verdict
}

// Observed returns the number of observations consumed.
func (s *SPRT) Observed() int { return s.observed }

// DarknetThreshold returns the number of consecutive failures — i.e.
// darknet packets — after which the SPRT declares a scanner:
// N = ⌈ln η1 / ln(θ1/θ0)⌉. This is the reduction that turns TRW into the
// Detector's packet counter.
func (p SPRTParams) DarknetThreshold() int {
	// Parameters solved to hit an exact integer threshold land within
	// float rounding of it; snap near-integers before taking the ceiling.
	ratio := p.upperLog() / p.failStep()
	if nearest := math.Round(ratio); math.Abs(ratio-nearest) < 1e-6*math.Max(1, nearest) {
		return int(nearest)
	}
	return int(math.Ceil(ratio))
}

// ParamsForDarknetThreshold returns SPRT parameters whose darknet
// reduction equals the given packet threshold, holding the canonical
// θ0/θ1 and β fixed and solving for α: α = (1−β)/exp(N·ln(θ1/θ0)).
// It documents what false-positive rate the paper's "100 packets"
// operating point implies under the canonical failure model.
func ParamsForDarknetThreshold(threshold int) (SPRTParams, error) {
	if threshold <= 0 {
		return SPRTParams{}, fmt.Errorf("trw: threshold must be positive, got %d", threshold)
	}
	p := DefaultSPRTParams()
	p.Alpha = (1 - p.Beta) / math.Exp(float64(threshold)*p.failStep())
	if p.Alpha < 1e-300 {
		// The implied false-positive rate is below float64 resolution;
		// the correspondence cannot be represented.
		return SPRTParams{}, fmt.Errorf("trw: threshold %d implies an unrepresentable α", threshold)
	}
	if err := p.Validate(); err != nil {
		return SPRTParams{}, err
	}
	return p, nil
}
