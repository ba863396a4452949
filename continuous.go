package repro

import (
	"fmt"
	"time"

	"repro/internal/mac"
	"repro/internal/saturation"
	"repro/internal/traffic"
)

// Continuous-traffic API: the paper's single batch is its strongest case
// against BEB; this extension runs the same MAC under ongoing arrivals
// (Poisson, periodic, saturated, or heavy-tailed bursts) and reports
// throughput, latency and fairness — the regimes of the paper's related
// work and concluding questions.

// ArrivalSpec selects a packet-arrival process for ContinuousWorkload.
type ArrivalSpec struct {
	kind string
	rate float64       // poisson: packets/s
	gap  time.Duration // periodic interval; pareto min gap
	// pareto parameters
	alpha float64
	burst float64
}

// Poisson arrivals at rate packets per second per station.
func Poisson(rate float64) ArrivalSpec { return ArrivalSpec{kind: "poisson", rate: rate} }

// Periodic arrivals, one packet per interval per station.
func Periodic(interval time.Duration) ArrivalSpec {
	return ArrivalSpec{kind: "periodic", gap: interval}
}

// Saturated traffic: every station always has the next packet queued.
func Saturated() ArrivalSpec { return ArrivalSpec{kind: "saturated"} }

// BurstyPareto emits geometric bursts (mean burstSize packets back-to-back)
// separated by Pareto(alpha) quiet gaps of at least minGap — the on/off
// construction behind self-similar traffic.
func BurstyPareto(alpha float64, minGap time.Duration, burstSize float64) ArrivalSpec {
	return ArrivalSpec{kind: "pareto", alpha: alpha, gap: minGap, burst: burstSize}
}

func (a ArrivalSpec) process() (traffic.Process, error) {
	switch a.kind {
	case "poisson":
		if a.rate <= 0 {
			return nil, fmt.Errorf("repro: Poisson rate must be positive, got %v", a.rate)
		}
		return traffic.NewPoisson(a.rate), nil
	case "periodic":
		if a.gap <= 0 {
			return nil, fmt.Errorf("repro: periodic interval must be positive, got %v", a.gap)
		}
		return traffic.NewPeriodic(a.gap), nil
	case "saturated":
		return traffic.NewSaturated(), nil
	case "pareto":
		if a.alpha <= 1 || a.gap <= 0 || a.burst < 1 {
			return nil, fmt.Errorf("repro: bad Pareto parameters (alpha=%v, gap=%v, burst=%v)",
				a.alpha, a.gap, a.burst)
		}
		return traffic.NewParetoBursts(a.alpha, a.gap, a.burst), nil
	default:
		return nil, fmt.Errorf("repro: empty arrival spec")
	}
}

// TrafficResult reports a continuous-traffic run.
type TrafficResult struct {
	N                  int
	Horizon            time.Duration
	Offered, Delivered int
	Backlog            int
	ThroughputMbps     float64
	LatencyP50         time.Duration
	LatencyP95         time.Duration
	LatencyMax         time.Duration
	Collisions         int
	JainFairness       float64
}

// PredictSaturatedThroughput returns Bianchi's analytical saturated
// throughput (Mbit/s of payload) for BEB with the given CWmin under the
// default 802.11g parameters and payload.
func PredictSaturatedThroughput(n, cwMin, payloadBytes int) (float64, error) {
	cfg := mac.DefaultConfig()
	cfg.CWMin = cwMin
	cfg.PayloadBytes = payloadBytes
	th, err := saturation.Predict(cfg, n)
	if err != nil {
		return 0, err
	}
	return th.Mbps, nil
}
