package policy

import "testing"

func TestClassifyTableIIProfiles(t *testing.T) {
	th := DefaultThresholds()
	cases := []struct {
		name       string
		gflops, bw float64
		want       Class
	}{
		{"BS", 161.3, 401.49, MM},
		{"GS", 19.6, 290, MM},
		{"MM", 1525, 403.5, MM},
		{"RG", 4.2, 71.6, LC},
		{"TR", 0, 568.6, HM},
		{"hypothetical H_C", 2000, 50, HC},
		{"hypothetical M_C", 500, 100, MC},
	}
	for _, c := range cases {
		if got := th.Classify(c.gflops, c.bw); got != c.want {
			t.Errorf("%s: Classify(%v, %v) = %v, want %v", c.name, c.gflops, c.bw, got, c.want)
		}
	}
}

func TestMemoryPriorityOverCompute(t *testing.T) {
	th := DefaultThresholds()
	// High compute + medium memory → M_M (memory wins).
	if got := th.Classify(5000, 300); got != MM {
		t.Fatalf("high-compute med-memory = %v, want M_M", got)
	}
	if got := th.Classify(5000, 500); got != HM {
		t.Fatalf("high-compute high-memory = %v, want H_M", got)
	}
}

// Table I verbatim checks, including the asymmetric entries.
func TestCorunTableI(t *testing.T) {
	cases := []struct {
		a, b Class
		want bool
	}{
		{LC, LC, true}, {LC, MC, true}, {LC, HC, false}, {LC, MM, true}, {LC, HM, true},
		{MC, LC, true}, {MC, MC, true}, {MC, HC, false}, {MC, MM, false}, {MC, HM, true},
		{HC, LC, false}, {HC, MC, false}, {HC, HC, false}, {HC, MM, false}, {HC, HM, true},
		{MM, LC, true}, {MM, MC, false}, {MM, HC, true}, {MM, MM, false}, {MM, HM, false},
		{HM, LC, true}, {HM, MC, true}, {HM, HC, false}, {HM, MM, false}, {HM, HM, false},
	}
	for _, c := range cases {
		if got := Corun(c.a, c.b); got != c.want {
			t.Errorf("Corun(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// The evaluation's observed decisions: Slate coruns RG with every
// application and runs every non-RG pair consecutively.
func TestPolicyMatchesPaperDecisions(t *testing.T) {
	th := DefaultThresholds()
	profiles := map[string][2]float64{
		"BS": {161.3, 401.49},
		"GS": {19.6, 290},
		"MM": {1525, 403.5},
		"RG": {4.2, 71.6},
		"TR": {0, 568.6},
	}
	names := []string{"BS", "GS", "MM", "RG", "TR"}
	for _, a := range names {
		for _, b := range names {
			ca := th.Classify(profiles[a][0], profiles[a][1])
			cb := th.Classify(profiles[b][0], profiles[b][1])
			got := Corun(ca, cb)
			want := a == "RG" || b == "RG"
			if got != want {
				t.Errorf("pair %s-%s (%v×%v): corun=%v, paper observed %v", a, b, ca, cb, got, want)
			}
		}
	}
}

func TestCorunOutOfRange(t *testing.T) {
	if Corun(Class(-1), LC) || Corun(LC, Class(99)) {
		t.Fatal("out-of-range classes must not corun")
	}
}

func TestANTT(t *testing.T) {
	if got := ANTT([]float64{2, 4}, []float64{1, 2}); got != 2 {
		t.Fatalf("ANTT = %v, want 2", got)
	}
	if got := ANTT([]float64{1}, []float64{1}); got != 1 {
		t.Fatalf("solo ANTT = %v, want 1", got)
	}
	if got := ANTT([]float64{1}, []float64{}); got != 0 {
		t.Fatalf("mismatched lengths should yield 0, got %v", got)
	}
	if got := ANTT([]float64{1}, []float64{0}); got != 0 {
		t.Fatalf("zero solo time should yield 0, got %v", got)
	}
}

func TestClassString(t *testing.T) {
	wants := map[Class]string{LC: "L_C", MC: "M_C", HC: "H_C", MM: "M_M", HM: "H_M"}
	for c, w := range wants {
		if c.String() != w {
			t.Errorf("%d.String() = %s, want %s", int(c), c.String(), w)
		}
	}
}
