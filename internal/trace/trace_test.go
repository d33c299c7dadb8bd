package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestArchProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) != 3 {
		t.Fatalf("got %d profiles", len(ps))
	}
	// The paper's overhead ordering.
	if !(PentiumD.BarrierOverhead < Q6600.BarrierOverhead &&
		Q6600.BarrierOverhead < Xeon.BarrierOverhead) {
		t.Fatal("profile overhead ordering violates §VII")
	}
	if Q6600.Threads != 4 || PentiumD.Threads != 2 || Xeon.Threads != 2 {
		t.Fatal("profile thread counts wrong")
	}
	if got := Q6600.Charge(100); got != 100*Q6600.BarrierOverhead {
		t.Fatalf("Charge = %v", got)
	}
}

func TestTableWrite(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.Add("alpha", 1.5)
	tb.Add("b", 0.5000)
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[2], "1.5") {
		t.Fatalf("row missing: %q", lines[2])
	}
	if !strings.Contains(lines[3], "0.5") || strings.Contains(lines[3], "0.5000") {
		t.Fatalf("float not trimmed: %q", lines[3])
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1.5:    "1.5",
		2:      "2",
		0.1234: "0.1234",
		0:      "0",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
