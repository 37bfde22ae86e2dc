package main

import (
	"net/http"
	"strings"
	"testing"
)

func lab(key int, liquid string) call { return call{kind: kindLab, truth: liquid, key: key} }
func ok(material string, omega float64) answer {
	return answer{status: http.StatusOK, Material: material, Omega: omega, Confidence: 0.9}
}

func TestOracleAcceptsRightAnswers(t *testing.T) {
	o := newOracle()
	o.check(lab(1, "milk"), ok("milk", -0.16))
	o.check(lab(1, "milk"), ok("milk", -0.16))
	o.check(call{kind: kindProbe, truth: "honey", omega: -0.3622, key: 2}, ok("oil", -0.3612))
	o.check(call{kind: kindPoisoned, truth: "soy", key: 3}, answer{status: http.StatusUnprocessableEntity})
	if good, why := o.verdict(); !good {
		t.Fatalf("rejected right answers: %s", why)
	}
}

func TestOracleRejectsWrongLabel(t *testing.T) {
	o := newOracle()
	o.check(lab(1, "milk"), ok("coke", -0.16))
	if good, _ := o.verdict(); good {
		t.Fatal("accepted a wrong label")
	}
}

func TestOracleScoresEachBodyOnce(t *testing.T) {
	// One wrong body repeated many times is one wrong capture, not many.
	o := newOracle()
	for k := 0; k < 19; k++ {
		o.check(lab(k, "milk"), ok("milk", -0.16))
	}
	for r := 0; r < 50; r++ {
		o.check(lab(99, "milk"), ok("coke", -0.17))
	}
	if good, why := o.verdict(); !good || o.scored != 20 {
		t.Fatalf("scored %d captures, verdict %v (%s); want 20, accepted", o.scored, good, why)
	}
}

func TestOracleRejectsOmegaOff(t *testing.T) {
	o := newOracle()
	o.check(lab(1, "milk"), ok("milk", -0.16))
	o.check(call{kind: kindProbe, truth: "honey", omega: -0.3622, key: 2}, ok("oil", -0.3622+0.05))
	good, why := o.verdict()
	if good || !strings.Contains(why, "probe") {
		t.Fatalf("accepted Ω off by 0.05: %v %s", good, why)
	}
}

func TestOracleRejectsChangedRepeat(t *testing.T) {
	for name, second := range map[string]answer{
		"material":   ok("coke", -0.16),
		"omega":      ok("milk", -0.1600001),
		"confidence": {status: http.StatusOK, Material: "milk", Omega: -0.16, Confidence: 0.8},
	} {
		o := newOracle()
		o.check(lab(1, "milk"), ok("milk", -0.16))
		o.check(lab(1, "milk"), second)
		if good, _ := o.verdict(); good {
			t.Errorf("accepted a repeat with a different %s", name)
		}
	}
}

func TestOracleRejectsUnexpectedFailures(t *testing.T) {
	for name, c := range map[string]call{
		"lab body answered 422":      lab(1, "milk"),
		"poisoned body answered 500": {kind: kindPoisoned, truth: "milk", key: 1},
	} {
		o := newOracle()
		o.check(lab(0, "milk"), ok("milk", -0.16))
		status := http.StatusUnprocessableEntity
		if c.kind == kindPoisoned {
			status = http.StatusInternalServerError
		}
		o.check(c, answer{status: status})
		if good, _ := o.verdict(); good {
			t.Errorf("accepted a %s", name)
		}
	}
}

func TestOracleScoresPoisonedBodyWhenAnswered(t *testing.T) {
	// Once serve degrades instead of failing, a poisoned body answers 200
	// and is scored like any lab capture.
	o := newOracle()
	o.check(call{kind: kindPoisoned, truth: "soy", key: 3}, ok("soy", -0.25))
	if good, why := o.verdict(); !good || o.scored != 1 {
		t.Fatalf("poisoned body answered right: verdict %v (%s), scored %d", good, why, o.scored)
	}
}

func TestHubOracle(t *testing.T) {
	p := placement{stream: 0, liquid: "honey", endRound: 9}
	good := func(o *hubOracle) bool { v, _ := o.verdict(); return v }

	o := &hubOracle{}
	o.placement(p, "honey")
	if !good(o) {
		t.Error("rejected a confirmed placement")
	}

	o = &hubOracle{}
	o.placement(p, "milk")
	if good(o) {
		t.Error("accepted a placement confirmed as the wrong liquid")
	}

	o = &hubOracle{shed: 1}
	o.placement(p, "honey")
	if good(o) {
		t.Error("accepted a shed hub session")
	}

	o = &hubOracle{failed: 1}
	o.placement(p, "honey")
	if good(o) {
		t.Error("accepted a failed hub session")
	}

	if good(&hubOracle{}) {
		t.Error("accepted a run with no placement")
	}
}
