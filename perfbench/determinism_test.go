package main

import (
	"testing"
	"time"
)

// detRun runs workload w at reduced size through its deterministic
// window once on the served path (HTTP) and once on the direct path,
// each on a fresh stack, and returns both phases.
func detRun(t *testing.T, w string, seed int64) (served, direct *phase) {
	t.Helper()
	o := options{workload: w, seed: seed, small: true}
	st, _, err := setup(o, false)
	if err != nil {
		t.Fatal(err)
	}
	r, err := reference(st)
	if err != nil {
		st.close()
		t.Fatal(err)
	}
	window := windowOf(st.d)
	ex := newHTTPExec(st, r)
	served = runLoop("http", ex, newSeq(st.d, seed), time.Minute, window, window, true, nil)
	ex.close()
	st.close()

	st2, _, err := setup(o, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.close()
	direct = runLoop("direct", &directExec{st: st2, refs: r}, newSeq(st2.d, seed), time.Minute, window, window, true, nil)
	for _, p := range []*phase{served, direct} {
		if !p.windowComplete() || len(p.bad) > 0 || p.failed() > 0 {
			t.Fatalf("%s %s seed %d: window complete %v, failed %d, bad %v", w, p.mode, seed, p.windowComplete(), p.failed(), p.bad)
		}
	}
	return served, direct
}

func sameOps(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDeterminism runs each workload twice at one seed and asserts that
// the op sequences, sim_cost_ms, probe counts and every reply digest
// repeat exactly, and that another seed changes the op sequence.
func TestDeterminism(t *testing.T) {
	for _, w := range workloadNames {
		w := w
		t.Run(w, func(t *testing.T) {
			s1, d1 := detRun(t, w, 5)
			s2, d2 := detRun(t, w, 5)
			if !sameOps(s1.ops, s2.ops) || !sameOps(d1.ops, d2.ops) || !sameOps(s1.ops, d1.ops) {
				t.Fatalf("op sequences differ between runs of one seed")
			}
			if s1.simCostMs() != s2.simCostMs() || d1.simCostMs() != d2.simCostMs() || s1.simCostMs() != d1.simCostMs() {
				t.Fatalf("sim_cost_ms differs: served %v / %v, direct %v / %v", s1.simCostMs(), s2.simCostMs(), d1.simCostMs(), d2.simCostMs())
			}
			if s1.simCostMs() <= 0 {
				t.Fatalf("sim_cost_ms is %v, want positive", s1.simCostMs())
			}
			if e1, e2 := windowDigest(s1), windowDigest(s2); e1 != e2 {
				t.Fatalf("window digests differ: %016x vs %016x", e1, e2)
			}
			for i := range s1.win {
				a, b, c, d := s1.win[i], s2.win[i], d1.win[i], d2.win[i]
				if a.digest != b.digest || a.digest != c.digest || c.digest != d.digest {
					t.Fatalf("op %d: reply digests differ: %016x %016x %016x %016x", i, a.digest, b.digest, c.digest, d.digest)
				}
				if c.probes != d.probes {
					t.Fatalf("op %d: probe counts differ: %d vs %d", i, c.probes, d.probes)
				}
			}
			other, _ := detRun(t, w, 6)
			if sameOps(s1.ops, other.ops) {
				t.Fatalf("seeds 5 and 6 gave the same op sequence")
			}
		})
	}
}
