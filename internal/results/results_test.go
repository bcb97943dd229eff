package results

import (
	"bytes"
	"testing"

	"essdsim/internal/sim"
)

func TestTableCSV(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.AddRow("1", "x,y") // comma forces CSV quoting
	tab.AddRow(Float(0.1), Seconds(-sim.Second))

	var csvBuf bytes.Buffer
	if err := tab.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n0.1,-1\n"
	if csvBuf.String() != want {
		t.Fatalf("CSV = %q, want %q", csvBuf.String(), want)
	}

}

func TestAddRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for wrong cell count")
		}
	}()
	NewTable("t", "a", "b").AddRow("only-one")
}

func TestFormattersDeterministic(t *testing.T) {
	cases := map[string]string{
		Float(1.0 / 3):                 "0.3333333333333333",
		Int(-5):                        "-5",
		Uint(7):                        "7",
		Bool(true):                     "true",
		Seconds(1500 * sim.Second):     "1500",
		Millis(sim.Millisecond):        "1",
		Millis(-sim.Second):            "-1",
		Seconds(-sim.Second):           "-1",
		Seconds(250 * sim.Millisecond): "0.25",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("formatted %q, want %q", got, want)
		}
	}
}
