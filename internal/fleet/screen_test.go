package fleet

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"essdsim/internal/qos"
)

// TestScreenRankingAgreesWithSimulation is the screen's reason to exist:
// the analytic score must rank the built-in policies' placements in the
// same order as the full simulation ranks their SLO violations on the
// calibrated ordering catalog. If the cheap model disagrees with the
// expensive truth on the study the suite pins hardest, the screen is
// selecting the wrong placements to simulate.
func TestScreenRankingAgreesWithSimulation(t *testing.T) {
	spec := orderingSpec().withDefaults()
	model := spec.newScreenModel()
	cons := spec.constraints()

	names := []string{"first-fit", "spread", "interference"}
	scores := make(map[string]float64, len(names))
	for _, name := range names {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		score, _ := model.score(spec.Demands, p.Place(cons, spec.Demands), spec.Backends)
		scores[name] = score
	}

	rep, err := Run(context.Background(), orderingSpec())
	if err != nil {
		t.Fatal(err)
	}
	viols := make(map[string]int, len(names))
	for _, name := range names {
		pr := rep.Policy(name)
		if pr == nil {
			t.Fatalf("missing %s in simulated report", name)
		}
		viols[name] = pr.P999Violations
	}

	// Rank both ways and compare the orderings, not the magnitudes: the
	// score is a pressure proxy, not a violation-count predictor.
	byScore := append([]string(nil), names...)
	sort.SliceStable(byScore, func(a, b int) bool { return scores[byScore[a]] < scores[byScore[b]] })
	byViol := append([]string(nil), names...)
	sort.SliceStable(byViol, func(a, b int) bool { return viols[byViol[a]] < viols[byViol[b]] })
	if !reflect.DeepEqual(byScore, byViol) {
		t.Fatalf("analytic ranking %v disagrees with simulated ranking %v (scores=%v violations=%v)",
			byScore, byViol, scores, viols)
	}
	// The calibrated catalog keeps both chains strict; a tie would make the
	// agreement above vacuous.
	if !(scores["interference"] < scores["spread"] && scores["spread"] < scores["first-fit"]) {
		t.Errorf("analytic chain not strict: %v", scores)
	}
}

// TestScreenFrontierAndVolume runs the two-fidelity screen end to end on
// the ordering catalog: the candidate volume must dwarf the simulation
// count (the whole point of screening), the frontier must be a proper
// Pareto set, every simulated frontier cell must exist in the report, and
// the run must be bit-for-bit deterministic.
func TestScreenFrontierAndVolume(t *testing.T) {
	ss := ScreenSpec{Spec: orderingSpec(), Candidates: 256}
	rep, err := Screen(context.Background(), ss)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Candidates < 10*simCount(rep) {
		t.Errorf("screen scored %d candidates for %d simulations; want >=10x more candidates than simulations",
			rep.Candidates, simCount(rep))
	}
	if rep.Generated < rep.Candidates {
		t.Errorf("generated %d < distinct %d", rep.Generated, rep.Candidates)
	}
	if len(rep.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(rep.Frontier); i++ {
		prev, cur := rep.Frontier[i-1], rep.Frontier[i]
		if cur.BackendsUsed <= prev.BackendsUsed {
			t.Errorf("frontier densities not strictly increasing: %d then %d", prev.BackendsUsed, cur.BackendsUsed)
		}
		if cur.Score >= prev.Score {
			t.Errorf("frontier scores not strictly improving: %.3f then %.3f", prev.Score, cur.Score)
		}
	}
	if rep.Simulated == nil {
		t.Fatal("no frontier simulations")
	}
	for i, pr := range rep.Simulated.Policies {
		if pr.BackendsUsed != rep.Frontier[i].BackendsUsed {
			t.Errorf("simulated %s used %d backends; screen predicted %d",
				pr.Policy, pr.BackendsUsed, rep.Frontier[i].BackendsUsed)
		}
	}

	// Determinism: a second identical screen must reproduce the report and
	// its rendering byte for byte.
	rep2, err := Screen(context.Background(), ss)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	FormatScreen(&b1, rep)
	FormatScreen(&b2, rep2)
	if b1.String() != b2.String() {
		t.Error("screen output not deterministic across identical runs")
	}
	if !reflect.DeepEqual(rep.Frontier, rep2.Frontier) {
		t.Error("frontier not deterministic across identical runs")
	}
	if !strings.Contains(b1.String(), "candidates scored") {
		t.Errorf("missing screen summary line in output:\n%s", b1.String())
	}
}

// TestScreenCouplingDiscount pins the screen-side honesty bound: with a
// debt-share rate at half the cleaner rate, qos.Isolation.DebtCouplingFactor
// halves the aggressor-pair penalty, so a placement that stacks both
// aggressors scores strictly lower (better) than under fifo while
// single-aggressor placements score identically.
func TestScreenCouplingDiscount(t *testing.T) {
	base := orderingSpec().withDefaults()
	iso := orderingSpec()
	iso.Isolation = qos.Isolation{
		Policy:        qos.IsolationWFQ,
		DebtShareRate: base.Backend.Cluster.CleanerRate / 2,
	}
	iso = iso.withDefaults()

	mFIFO := base.newScreenModel()
	mISO := iso.newScreenModel()
	if mFIFO.coupling != 1 {
		t.Fatalf("fifo coupling = %g, want 1", mFIFO.coupling)
	}
	if mISO.coupling != 0.5 {
		t.Fatalf("half-rate wfq coupling = %g, want 0.5", mISO.coupling)
	}

	// first-fit stacks both aggressors (positions 0 and 4) on backend 0;
	// interference-aware separates them.
	cons := base.constraints()
	stacked := FirstFit{}.Place(cons, base.Demands)
	separated := InterferenceAware{}.Place(cons, base.Demands)

	sFIFO, _ := mFIFO.score(base.Demands, stacked, base.Backends)
	sISO, _ := mISO.score(base.Demands, stacked, base.Backends)
	if sISO >= sFIFO {
		t.Fatalf("stacked placement: isolated score %.3f not below fifo %.3f", sISO, sFIFO)
	}
	pFIFO, _ := mFIFO.score(base.Demands, separated, base.Backends)
	pISO, _ := mISO.score(base.Demands, separated, base.Backends)
	if pISO > pFIFO {
		t.Fatalf("separated placement: isolated score %.3f above fifo %.3f", pISO, pFIFO)
	}
	// The discount narrows the stacked-vs-separated spread: isolation makes
	// dense packing relatively cheaper, which is the screen-side mirror of
	// the simulated trade-off.
	if (sISO - pISO) >= (sFIFO - pFIFO) {
		t.Fatalf("penalty spread did not narrow under isolation: iso %.3f vs fifo %.3f",
			sISO-pISO, sFIFO-pFIFO)
	}
}
