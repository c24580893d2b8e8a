package harness

import (
	"strings"
	"testing"

	"slate/internal/daemon"
	"slate/internal/sched"
)

// The design-choice ablation: each mechanism the scheduler relies on must
// pay its way.
func TestAblations(t *testing.T) {
	r, err := testHarness.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationVariant{}
	for _, v := range r.Variants {
		byName[v.Name] = v
	}
	def := byName["table-i"]
	if def.Name == "" {
		t.Fatal("default variant missing")
	}

	// 1. Workload-aware selection: forcing BS-TR to corun must cost
	// several points versus the policy's refusal.
	always := byName["always-corun"]
	if always.GainVsMPS["BS-TR"] >= def.GainVsMPS["BS-TR"]-0.03 {
		t.Errorf("always-corun on BS-TR (%.1f%%) should clearly lose to table-i (%.1f%%)",
			always.GainVsMPS["BS-TR"]*100, def.GainVsMPS["BS-TR"]*100)
	}

	// 2. Corun selection is where the big wins come from: serializing
	// everything forfeits most of BS-RG's gain.
	never := byName["never-corun"]
	if never.GainVsMPS["BS-RG"] >= def.GainVsMPS["BS-RG"]-0.20 {
		t.Errorf("never-corun keeps BS-RG gain (%.1f%% vs %.1f%%); corun should be worth ≥20 points",
			never.GainVsMPS["BS-RG"]*100, def.GainVsMPS["BS-RG"]*100)
	}
	// ...but software scheduling alone still wins on GS-GS.
	if never.GainVsMPS["GS-GS"] < 0.15 {
		t.Errorf("never-corun GS-GS gain %.1f%%; in-order scheduling alone should keep ≥15%%",
			never.GainVsMPS["GS-GS"]*100)
	}

	// 3. The measured-scaling split beats a blind even split where the
	// partners' needs differ (GS wants ~22 SMs).
	even := byName["even-split"]
	if even.GainVsMPS["GS-RG"] >= def.GainVsMPS["GS-RG"]-0.03 {
		t.Errorf("even split on GS-RG (%.1f%%) should lose to the scaling split (%.1f%%)",
			even.GainVsMPS["GS-RG"]*100, def.GainVsMPS["GS-RG"]*100)
	}

	// 4. Overall ordering: the full design has the best mean.
	for name, v := range byName {
		if name != "table-i" && v.Mean > def.Mean+0.005 {
			t.Errorf("variant %s mean %.1f%% beats the full design %.1f%%", name, v.Mean*100, def.Mean*100)
		}
	}

	out := r.Render()
	if !strings.Contains(out, "table-i") || !strings.Contains(out, "BS-RG") {
		t.Error("render incomplete")
	}
}

// The ANTT-predictive policy (§III-B's definition computed from scaling
// profiles) must agree with Table I where Table I is right, and fix its
// blind spot on linearly-scaling self-pairs.
func TestANTTPredictVariant(t *testing.T) {
	r, err := testHarness.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	var def, antt AblationVariant
	for _, v := range r.Variants {
		switch v.Name {
		case "table-i":
			def = v
		case "antt-predict":
			antt = v
		}
	}
	if antt.Name == "" {
		t.Fatal("antt-predict variant missing")
	}
	// Matches the table's wins on the real corun pairs.
	for _, pair := range []string{"BS-RG", "GS-RG"} {
		if antt.GainVsMPS[pair] < def.GainVsMPS[pair]-0.05 {
			t.Errorf("%s: antt-predict %.1f%% well below table-i %.1f%%",
				pair, antt.GainVsMPS[pair]*100, def.GainVsMPS[pair]*100)
		}
	}
	// And refuses the non-complementary BS-TR just like the table.
	if antt.GainVsMPS["BS-TR"] < def.GainVsMPS["BS-TR"]-0.03 {
		t.Errorf("BS-TR: antt-predict %.1f%% below table-i %.1f%%; it should refuse the corun",
			antt.GainVsMPS["BS-TR"]*100, def.GainVsMPS["BS-TR"]*100)
	}
}

// On the Table-I blind spot (KM-KM), the predictive policy chooses solo
// while the default table coruns.
func TestANTTPredictFixesLinearSelfPair(t *testing.T) {
	decide := func(mut mutator) string {
		pair, err := appsByCode("KM", "KM")
		if err != nil {
			t.Fatal(err)
		}
		pair[1].Kernel.Name = "KM@2"
		jobs, err := testHarness.jobsFor(pair)
		if err != nil {
			t.Fatal(err)
		}
		_, s, err := testHarness.runSlate(jobs, mut)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range s.Decisions() {
			if d.Action == "corun" {
				return "corun"
			}
		}
		return "solo"
	}
	predictive := func(b *daemon.SimBackend) { b.Sched.CorunFn = sched.ANTTPredictCorun(b.Sched, 0.10) }
	if got := decide(nil); got != "corun" {
		t.Fatalf("Table I on KM-KM decided %s, expected its blind-spot corun", got)
	}
	if got := decide(predictive); got != "solo" {
		t.Fatalf("antt-predict on KM-KM decided %s; predicted speeds sum to ≈1, want solo", got)
	}
}
