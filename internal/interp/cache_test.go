package interp

import "testing"

// TestScheduleCacheIsBounded: a DO loop whose region depends on the
// loop variable compiles one schedule per iteration and never replays
// any of them. The cache must not hold them all — it is dropped whole
// when full — and dropping it must not change what the program
// computes: the bounded run agrees with the sequential engine, whose
// schedules hold no plans worth bounding.
func TestScheduleCacheIsBounded(t *testing.T) {
	const src = `
PROCESSORS P(2)
PARAMETER N = 1001
REAL A(1:N), R(1:N)
!HPF$ DISTRIBUTE (CYCLIC) :: A, R
FORALL (I = 1:N) A(I) = MOD(I*5, 13) + 1
FORALL (I = 1:N) R(I) = 0
DO K = 1, N-1
  R(K+1:N) = R(K+1:N) + 0.5*A(K:N-1)
END DO
PRINT SUM(R)
PRINT R(N)
`
	run := func(engine string) (*Result, int, int64) {
		prog, err := Config{NP: 2, Engine: engine}.NewProgram()
		if err != nil {
			t.Fatal(err)
		}
		defer prog.Close()
		ip := New(prog)
		_, m0 := CacheStats()
		res, err := ip.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		_, m1 := CacheStats()
		return res, len(ip.scheds), m1 - m0
	}
	got, held, misses := run("spmd")
	if misses != 1000 {
		t.Errorf("%d cache misses, want one per region (1000)", misses)
	}
	if held > maxCachedSchedules {
		t.Errorf("cache holds %d schedules after 1000 distinct regions, cap is %d", held, maxCachedSchedules)
	}
	if held == 0 {
		t.Error("cache is empty: the most recent schedules should still be held")
	}
	want, _, _ := run("sim")
	if got.Output != want.Output {
		t.Errorf("output changed:\n spmd %q\n  sim %q", got.Output, want.Output)
	}
	if g, w := got.Report.Logical(), want.Report.Logical(); g != w {
		t.Errorf("report changed:\n spmd %+v\n  sim %+v", g, w)
	}
}

// TestIrregularCacheKey: the cache key of an irregular statement tells
// apart indirection vectors that differ in one entry (both statements
// miss), while re-running a statement, or one whose section selects the
// same elements through a different triplet, hits.
func TestIrregularCacheKey(t *testing.T) {
	const src = `
PROCESSORS P(2)
PARAMETER COL = (/3,1,7,4/)
PARAMETER COL2 = (/3,1,8,4/)
PARAMETER IDX = (/1,2,3,4/)
REAL X(1:8), Y(1:4)
!HPF$ DISTRIBUTE (CYCLIC) :: X, Y
FORALL (I = 1:8) X(I) = I
Y(1:4) = 2*X(COL)
Y(1:4) = 2*X(COL2)
Y(1:4) = 2*X(COL)
Y(IDX) = 2*X(1:7:2)
Y(IDX) = 2*X(1:8:2)
PRINT SUM(Y)
`
	prog, err := Config{NP: 2, Engine: "spmd"}.NewProgram()
	if err != nil {
		t.Fatal(err)
	}
	defer prog.Close()
	ip := New(prog)
	h0, m0 := CacheStats()
	res, err := ip.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := CacheStats()
	if hits, misses := h1-h0, m1-m0; hits != 2 || misses != 3 {
		t.Errorf("%d hits, %d misses; want 2 hits (COL again, X(1:8:2)) and 3 misses (COL, COL2, X(1:7:2))", hits, misses)
	}
	if len(ip.scheds) != 3 {
		t.Errorf("cache holds %d schedules, want 3", len(ip.scheds))
	}
	if res.Output != "SUM(Y) = 32\n" {
		t.Errorf("output %q, want 32", res.Output)
	}
}
