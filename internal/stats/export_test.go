package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of vals (NaN for empty input).
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Std returns the population standard deviation of vals.
func Std(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	m := Mean(vals)
	var s float64
	for _, v := range vals {
		s += (v - m) * (v - m)
	}
	return math.Sqrt(s / float64(len(vals)))
}

// GB formats bytes as a GiB string at the paper's (unscaled) magnitude
// when scaled by factor (e.g. 48MB with factor 1024 prints "48GB").
func GB(bytes int64, factor int64) string {
	return fmt.Sprintf("%.3gGB", float64(bytes*factor)/float64(1<<30))
}
