package core

import "testing"

func TestRunE7ThreePhaseStory(t *testing.T) {
	rows, err := RunE7(E7Config{
		Topo: Mesh2D(6), Zombies: 2, AttackGap: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("phases = %d", len(rows))
	}
	clean, attacked, blocked := rows[0], rows[1], rows[2]

	if clean.CompletionRate() != 1.0 {
		t.Errorf("clean completion = %.3f, want 1.0", clean.CompletionRate())
	}
	if clean.Refused != 0 || clean.Backscatter != 0 {
		t.Errorf("clean phase refused=%d backscatter=%d", clean.Refused, clean.Backscatter)
	}

	if attacked.CompletionRate() >= 0.9 {
		t.Errorf("attack completion = %.3f: no denial observed", attacked.CompletionRate())
	}
	if attacked.Refused == 0 {
		t.Error("attack never exhausted the table")
	}
	if attacked.Backscatter == 0 {
		t.Error("no backscatter under random spoofing")
	}

	if blocked.CompletionRate() != 1.0 {
		t.Errorf("blocked completion = %.3f, want full recovery", blocked.CompletionRate())
	}
	if blocked.Blocked == 0 {
		t.Error("blocklist never fired in the blocked phase")
	}
	if blocked.CompletionRate() <= attacked.CompletionRate() {
		t.Error("blocking did not improve completion")
	}
}
