package report

import (
	"bytes"
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		Title:   "Fig 1a: lock acquisitions",
		Headers: []string{"workload", "t=4", "t=48"},
	}
	t.AddRow("xalan", "25588", "43056")
	t.AddRow("jython", "10108", "10108")
	return t
}

func TestASCIIRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 1a", "workload", "xalan", "43056", "----"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns aligned: every data line has the same prefix width up to the
	// second column.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 {
		t.Fatalf("too few lines: %q", out)
	}
}

func TestCSVRendering(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want 3", len(lines))
	}
	if lines[0] != "workload,t=4,t=48" {
		t.Errorf("csv header = %q", lines[0])
	}
	if lines[1] != "xalan,25588,43056" {
		t.Errorf("csv row = %q", lines[1])
	}
}

func TestAddRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row accepted")
		}
	}()
	sample().AddRow("only-one-cell")
}

func TestNoteRendered(t *testing.T) {
	tb := sample()
	tb.Note = "paper reports growth for scalable apps"
	if !strings.Contains(tb.String(), "note: paper reports") {
		t.Error("note missing")
	}
}

func TestFormatters(t *testing.T) {
	if FormatCount(999) != "999" {
		t.Error(FormatCount(999))
	}
	if FormatCount(43056) != "43.1k" {
		t.Error(FormatCount(43056))
	}
	if FormatCount(2_500_000) != "2.50M" {
		t.Error(FormatCount(2_500_000))
	}
	if FormatPct(0.25) != "25.0%" {
		t.Error(FormatPct(0.25))
	}
}
