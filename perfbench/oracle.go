package main

import (
	"fmt"
	"math"
	"net/http"
)

// answer is one /v1/identify outcome as the client saw it.
type answer struct {
	status     int
	Material   string  `json:"material"`
	Omega      float64 `json:"omega"`
	Confidence float64 `json:"confidence"`
}

// same reports whether two answers carry identical material, Ω and
// confidence, bit for bit.
func (a answer) same(b answer) bool {
	return a.Material == b.Material &&
		math.Float64bits(a.Omega) == math.Float64bits(b.Omega) &&
		math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence)
}

// oracle scores answers without consulting the identification code: each
// distinct lab capture against the liquid that was simulated, each probe
// against the material's ground-truth Ω, and every repeat of a body
// against that body's first answer.
type oracle struct {
	scored, right int // lab captures answered, and answered correctly
	violations    int
	first         string         // the first violation, for the report
	seen          map[int]answer // first answer per body key
}

func newOracle() *oracle { return &oracle{seen: map[int]answer{}} }

func (o *oracle) violate(format string, args ...any) {
	if o.violations == 0 {
		o.first = fmt.Sprintf(format, args...)
	}
	o.violations++
}

// check scores one answer.
func (o *oracle) check(c call, a answer) {
	if a.status != http.StatusOK {
		// Serve never routes through core.IdentifyRobust, so one NaN sample
		// fails the whole request. Counted as failed until that is mended.
		if c.kind == kindPoisoned && a.status == http.StatusUnprocessableEntity {
			return
		}
		o.violate("body %d (%s): status %d", c.key, c.truth, a.status)
		return
	}
	if prev, ok := o.seen[c.key]; ok {
		if !prev.same(a) {
			o.violate("body %d: answer %+v differs from earlier %+v", c.key, a, prev)
		}
		return
	}
	// A body is scored once, on its first answer: the rest must repeat it.
	o.seen[c.key] = a
	switch c.kind {
	case kindLab, kindPoisoned:
		o.scored++
		if a.Material == c.truth {
			o.right++
		}
	case kindProbe:
		if d := math.Abs(a.Omega - c.omega); !(d <= omegaTolerance) {
			o.violate("probe %d (%s): Ω %.4f, truth %.4f", c.key, c.truth, a.Omega, c.omega)
		}
	}
}

// accuracy is the share of distinct lab captures labelled correctly.
func (o *oracle) accuracy() float64 {
	if o.scored == 0 {
		return 0
	}
	return float64(o.right) / float64(o.scored)
}

// verdict reports whether every check held, with the reason if not.
func (o *oracle) verdict() (bool, string) {
	switch {
	case o.violations > 0:
		return false, fmt.Sprintf("%d oracle violations, first: %s", o.violations, o.first)
	case o.scored == 0:
		return false, "no lab capture was answered"
	case o.accuracy() < accuracyFloor:
		return false, fmt.Sprintf("accuracy %.4f below the %.2f floor (%d/%d)",
			o.accuracy(), accuracyFloor, o.right, o.scored)
	}
	return true, ""
}

// hubOracle checks a monitored fleet: every scripted placement's confirmed
// material against the script, and no session shed or failed.
type hubOracle struct {
	placements, right int
	shed, failed      uint64
}

// placement scores the material a stream had confirmed when a placement
// ended.
func (o *hubOracle) placement(p placement, confirmed string) {
	o.placements++
	if confirmed == p.liquid {
		o.right++
	}
}

func (o *hubOracle) verdict() (bool, string) {
	switch {
	case o.shed > 0 || o.failed > 0:
		return false, fmt.Sprintf("%d sessions shed, %d failed", o.shed, o.failed)
	case o.placements == 0:
		return false, "no placement completed"
	case float64(o.right) < accuracyFloor*float64(o.placements):
		return false, fmt.Sprintf("%d of %d placements confirmed the scripted liquid, below the %.2f floor",
			o.right, o.placements, accuracyFloor)
	}
	return true, ""
}
