package main

import "math"

// stepResult is one fixed-rate window of a knee search.
type stepResult struct {
	rate  float64
	pass  bool
	p99ms float64
}

// kneeConfig shapes the search. Rates grow by grow from start until a rate
// fails, then the bracket [highest pass, lowest fail] is bisected
// geometrically until hi/lo ≤ 1+resolution or maxSteps is spent. A start
// that fails steps down by grow instead, no lower than floor. A rate fails
// only when two steps in a row at it fail, so one scheduler stall on a
// shared host does not end the search low.
type kneeConfig struct {
	start, floor, ceil float64
	grow, resolution   float64
	maxSteps           int
}

// searchKnee returns the highest rate at which step passed (0 if none did)
// and every step it ran, in order.
func searchKnee(cfg kneeConfig, step func(rate float64) stepResult) (float64, []stepResult) {
	var steps []stepResult
	try := func(rate float64) bool {
		for i := 0; i < 2 && len(steps) < cfg.maxSteps; i++ {
			r := step(rate)
			steps = append(steps, r)
			if r.pass {
				return true
			}
		}
		return false
	}
	lo, hi := 0.0, math.Inf(1)
	rate := cfg.start
	// Bracket.
	for len(steps) < cfg.maxSteps {
		if try(rate) {
			lo = rate
			if !math.IsInf(hi, 1) {
				break
			}
			if rate >= cfg.ceil {
				return lo, steps
			}
			rate = math.Min(rate*cfg.grow, cfg.ceil)
		} else {
			hi = rate
			if lo > 0 {
				break
			}
			if rate <= cfg.floor {
				return 0, steps
			}
			rate = math.Max(rate/cfg.grow, cfg.floor)
		}
	}
	// Bisect.
	for len(steps) < cfg.maxSteps && lo > 0 && hi/lo > 1+cfg.resolution {
		mid := math.Sqrt(lo * hi)
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, steps
}
