package variation

import (
	"testing"

	"repro/internal/tech"
)

func TestRecoverLeakageOnFastDie(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	nom, err := analyze(pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{SigmaD2DmV: 25, SigmaSysmV: 0, SigmaRndmV: 0}
	// Seed 1 draws a clearly fast die (a -31 mV shift).
	const seed = 1
	die := m.Sample(pl, proc, seed)
	if die.DVthV[0] > -0.02 {
		t.Fatalf("pinned seed %d no longer draws a clearly fast die: dvth=%.4f", seed, die.DVthV[0])
	}
	r, err := recoverLeakage(pl, nom, die, proc, RBBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Applied {
		t.Fatal("fast die had margin but RBB was not applied")
	}
	if r.VbsV >= 0 {
		t.Errorf("RBB voltage %f not negative", r.VbsV)
	}
	if r.LeakAfterNW >= r.LeakBeforeNW {
		t.Error("RBB did not reduce leakage")
	}
	if r.DcritAfterPS > nom.DcritPS {
		t.Errorf("RBB broke timing: %f > %f", r.DcritAfterPS, nom.DcritPS)
	}
	if r.DcritAfterPS <= r.DcritBeforePS {
		t.Error("RBB should slow the die down")
	}
	if r.SavedPct <= 0 || r.SavedPct >= 100 {
		t.Errorf("implausible savings %f%%", r.SavedPct)
	}
}

func TestRecoverLeakageSlowDieUntouched(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	nom, err := analyze(pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{SigmaD2DmV: 25, SigmaSysmV: 0, SigmaRndmV: 0}
	// Seed 2 draws a slow die (a +13 mV shift).
	const seed = 2
	die := m.Sample(pl, proc, seed)
	if die.DVthV[0] < 0.01 {
		t.Fatalf("pinned seed %d no longer draws a slow die: dvth=%.4f", seed, die.DVthV[0])
	}
	r, err := recoverLeakage(pl, nom, die, proc, RBBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Applied {
		t.Error("slow die must not receive RBB")
	}
	if r.LeakAfterNW != r.LeakBeforeNW {
		t.Error("slow die leakage changed")
	}
}

func TestRecoveryStudy(t *testing.T) {
	pl := placed(t, "c1355")
	proc := tech.Default45nm()
	st, err := RecoveryStudy(pl, proc, Default(), 40, 17, RBBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("RBB recovery: %d/%d dies, mean saving %.1f%%, fleet leak %.0f -> %.0f nW",
		st.Recovered, st.Dies, st.MeanSavedPct, st.MeanLeakBeforeNW, st.MeanLeakAfterNW)
	if st.Recovered == 0 {
		t.Fatal("seed 17's 40-die population no longer holds a recoverable fast die")
	}
	if st.MeanLeakAfterNW >= st.MeanLeakBeforeNW {
		t.Error("recovery did not reduce fleet leakage")
	}
	if _, err := RecoveryStudy(pl, proc, Default(), 0, 1, RBBOptions{}); err == nil {
		t.Error("zero dies accepted")
	}
}
