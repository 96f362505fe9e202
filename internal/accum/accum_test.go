package accum

import "testing"

func TestAdmitAccumulate(t *testing.T) {
	var a Dense
	a.Begin(4)
	if a.Mark[2] == a.Epoch {
		t.Fatal("slot admitted before Admit")
	}
	a.Admit(2)
	a.Dot[2] += 1.5
	a.Admit(0)
	a.Dot[0] += 2.0
	a.Dot[2] += 0.5
	if len(a.Cands) != 2 || a.Cands[0] != 2 || a.Cands[1] != 0 {
		t.Fatalf("cands = %v, want first-touch order [2 0]", a.Cands)
	}
	if a.Dot[2] != 2.0 || a.Dot[0] != 2.0 {
		t.Fatalf("dots = %v %v", a.Dot[2], a.Dot[0])
	}
}

func TestBeginResetsWithoutClearing(t *testing.T) {
	var a Dense
	a.Begin(3)
	a.Admit(1)
	a.Dot[1] = 9
	a.Begin(3)
	if a.Mark[1] == a.Epoch {
		t.Fatal("stale admission visible after Begin")
	}
	if len(a.Cands) != 0 {
		t.Fatal("candidate list not reset")
	}
	a.Admit(1)
	if a.Dot[1] != 0 {
		t.Fatalf("dot not zeroed on re-admission: %v", a.Dot[1])
	}
}

func TestBeginGrows(t *testing.T) {
	var a Dense
	a.Begin(2)
	a.Admit(1)
	a.Begin(10)
	a.Admit(9)
	if len(a.Mark) < 10 || len(a.Dot) < 10 || len(a.Dead) < 10 {
		t.Fatalf("arrays did not grow: %d %d %d", len(a.Mark), len(a.Dead), len(a.Dot))
	}
}

func TestDecline(t *testing.T) {
	var a Dense
	a.Begin(4)
	a.Decline(3)
	a.Decline(3) // idempotent per probe
	if a.Dead[3] != a.Epoch {
		t.Fatal("slot not dead")
	}
	a.Begin(4)
	if a.Dead[3] == a.Epoch {
		t.Fatal("decline leaked across probes")
	}
}

func TestEpochWraparound(t *testing.T) {
	var a Dense
	a.Begin(2)
	a.Admit(0)
	a.Dead[1] = a.Epoch
	a.Epoch = ^uint32(0) // force the next Begin to wrap
	a.Begin(2)
	if a.Epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", a.Epoch)
	}
	if a.Mark[0] == a.Epoch || a.Dead[1] == a.Epoch {
		t.Fatal("stale stamps collide with the restarted epoch")
	}
}
