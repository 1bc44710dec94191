package combin

import (
	"testing"
	"testing/quick"
)

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {4, 2, 6}, {6, 3, 20},
		{10, 5, 252}, {30, 15, 155117520}, {5, -1, 0}, {5, 6, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	// Pascal's rule as a property check over a broad range.
	for n := 1; n <= 40; n++ {
		for k := 0; k <= n; k++ {
			if got := Binomial(n, k); got != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal fails at C(%d,%d) = %d", n, k, got)
			}
		}
	}
}

func TestBinomialSymmetry(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw % 50)
		k := int(kRaw % 51)
		return Binomial(n, k) == Binomial(n, n-k) || k > n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialRowSum(t *testing.T) {
	for n := 0; n <= 30; n++ {
		var sum int64
		for k := 0; k <= n; k++ {
			sum += Binomial(n, k)
		}
		if sum != Pow2(n) {
			t.Errorf("row %d sums to %d, want 2^%d", n, sum, n)
		}
	}
}

func TestBinomialNegativeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Binomial(-1, 0) did not panic")
		}
	}()
	Binomial(-1, 0)
}

func TestPow2(t *testing.T) {
	if Pow2(0) != 1 || Pow2(10) != 1024 || Pow2(62) != 1<<62 {
		t.Error("Pow2 wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Pow2(63) did not panic")
		}
	}()
	Pow2(63)
}

func TestTreeNodesOfTypePartition(t *testing.T) {
	// Summing #T(k) over k at each level must give C(d, l) (every node
	// has exactly one type), and summing over everything gives 2^d.
	for d := 1; d <= 12; d++ {
		var total int64
		for l := 0; l <= d; l++ {
			var atLevel int64
			for k := 0; k <= d; k++ {
				atLevel += TreeNodesOfType(d, l, k)
			}
			if atLevel != Binomial(d, l) {
				t.Errorf("d=%d l=%d: types sum to %d, want %d", d, l, atLevel, Binomial(d, l))
			}
			total += atLevel
		}
		if total != Pow2(d) {
			t.Errorf("d=%d: total %d, want %d", d, total, Pow2(d))
		}
	}
}

func TestTreeLeavesAtLevel(t *testing.T) {
	// Property 2/6: all leaves are in C_d; there are C(d-1, l-1) leaves
	// at level l, and they total 2^(d-1).
	for d := 1; d <= 12; d++ {
		var total int64
		for l := 1; l <= d; l++ {
			total += TreeLeavesAtLevel(d, l)
		}
		if total != Pow2(d-1) {
			t.Errorf("d=%d: %d leaves, want %d", d, total, Pow2(d-1))
		}
	}
}

func TestClassSizesSumToN(t *testing.T) {
	for d := 0; d <= 12; d++ {
		var total int64
		for i := 0; i <= d; i++ {
			total += ClassSize(d, i)
		}
		if total != Pow2(d) {
			t.Errorf("d=%d: classes sum to %d, want %d", d, total, Pow2(d))
		}
	}
}

func TestCleanExtraAgentsClosedForm(t *testing.T) {
	// Lemma 3: the sum telescopes to C(d,l+1) - C(d,l) + C(d-1,l-1).
	for d := 2; d <= 16; d++ {
		for l := 1; l <= d-1; l++ {
			want := Binomial(d, l+1) - Binomial(d, l) + Binomial(d-1, l-1)
			if got := CleanExtraAgents(d, l); got != want {
				t.Errorf("d=%d l=%d: extras = %d, closed form %d", d, l, got, want)
			}
		}
	}
}

func TestCleanPhasePeakClosedForm(t *testing.T) {
	// Peak = C(d, l+1) + C(d-1, l-1) + 1.
	for d := 2; d <= 16; d++ {
		for l := 1; l <= d-1; l++ {
			want := Binomial(d, l+1) + Binomial(d-1, l-1) + 1
			if got := CleanPhasePeak(d, l); got != want {
				t.Errorf("d=%d l=%d: peak = %d, want %d", d, l, got, want)
			}
		}
	}
}

func TestCleanTeamSizeValues(t *testing.T) {
	// Hand-checked small cases. d=4: peak phases l=1,2 give
	// C(4,2)+C(3,0)+1 = 8 and C(4,3)+C(3,1)+1 = 8.
	cases := []struct {
		d    int
		want int64
	}{
		{1, 2}, {2, 3}, {3, 5}, {4, 8}, {6, 26},
	}
	for _, c := range cases {
		if got := CleanTeamSize(c.d); got != c.want {
			t.Errorf("CleanTeamSize(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestCleanTeamSizeGrowth(t *testing.T) {
	// Team size is monotone in d and, from d = 4 on, sits between
	// n/log n (the paper's claim, up to a constant) and n/2 (the
	// visibility strategy's team).
	prev := CleanTeamSize(3)
	for d := 4; d <= 20; d++ {
		got := CleanTeamSize(d)
		if got <= prev {
			t.Errorf("team size not increasing at d=%d: %d <= %d", d, got, prev)
		}
		prev = got
		n := Pow2(d)
		if float64(got) < NOverLogN(d)/4 {
			t.Errorf("d=%d: team %d unexpectedly below n/logn/4", d, got)
		}
		if got > n/2 {
			t.Errorf("d=%d: team %d above n/2", d, got)
		}
	}
}

func TestCleanAgentMoves(t *testing.T) {
	// (d+1)*2^(d-1) equals twice the sum of broadcast-tree leaf depths.
	for d := 2; d <= 20; d++ {
		if got, want := CleanAgentMoves(d), 2*SumLeafDepths(d); got != want {
			t.Errorf("d=%d: CleanAgentMoves = %d, 2*SumLeafDepths = %d", d, got, want)
		}
	}
	if CleanAgentMoves(0) != 0 {
		t.Error("H_0 needs no agent moves")
	}
}

func TestVisibilityFormulas(t *testing.T) {
	for d := 2; d <= 20; d++ {
		if got, want := VisibilityAgents(d), Pow2(d-1); got != want {
			t.Errorf("d=%d agents = %d, want %d", d, got, want)
		}
		if got, want := VisibilityMoves(d), SumLeafDepths(d); got != want {
			t.Errorf("d=%d moves = %d, want sum of leaf depths %d", d, got, want)
		}
		if VisibilityTime(d) != int64(d) {
			t.Errorf("d=%d time wrong", d)
		}
	}
	if VisibilityAgents(0) != 1 || VisibilityMoves(0) != 0 || VisibilityMoves(1) != 1 {
		t.Error("degenerate visibility formulas wrong")
	}
}

func TestCloningMoves(t *testing.T) {
	for d := 0; d <= 20; d++ {
		if got := CloningMoves(d); got != Pow2(d)-1 {
			t.Errorf("d=%d cloning moves = %d", d, got)
		}
	}
}

func TestAsymptoticHelpers(t *testing.T) {
	if NOverLogN(0) != 1 || NOverSqrtLogN(0) != 1 {
		t.Error("degenerate asymptotics wrong")
	}
	if NOverLogN(10) != 1024.0/10 {
		t.Error("NOverLogN wrong")
	}
	if NLogN(3) != 24 {
		t.Error("NLogN wrong")
	}
}

func TestFitRatioAndMaxDeviation(t *testing.T) {
	r := FitRatio([]float64{2, 4, 6}, []float64{1, 2, 3})
	for _, v := range r {
		if v != 2 {
			t.Errorf("ratio = %v", r)
		}
	}
	if dev := MaxDeviation([]float64{1.5, 1.1, 0.9}, 2); dev != 0.1+1e-17 && dev != 0.10000000000000009 && !(dev > 0.09 && dev < 0.11) {
		t.Errorf("MaxDeviation = %v", dev)
	}
	if dev := MaxDeviation([]float64{3}, 10); dev != 2 {
		t.Errorf("MaxDeviation tail clamp = %v", dev)
	}
}

func TestFitRatioMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FitRatio length mismatch did not panic")
		}
	}()
	FitRatio([]float64{1}, []float64{1, 2})
}

// TestVisibilityGatherSum pins the work budget of the event-driven
// visibility engine: placements plus moves, with the closed form
// 2^(d-1) + (d+1)*2^(d-2) holding from d = 2 on.
func TestVisibilityGatherSum(t *testing.T) {
	if VisibilityGatherSum(0) != 1 || VisibilityGatherSum(1) != 2 {
		t.Errorf("degenerate gather sums: d=0 -> %d, d=1 -> %d",
			VisibilityGatherSum(0), VisibilityGatherSum(1))
	}
	for d := 2; d <= 30; d++ {
		want := Pow2(d-1) + int64(d+1)*Pow2(d-2)
		if got := VisibilityGatherSum(d); got != want {
			t.Errorf("d=%d: gather sum %d, want %d", d, got, want)
		}
	}
}
