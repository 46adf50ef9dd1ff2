package table

import (
	"strings"
	"testing"
)

func TestRendering(t *testing.T) {
	tb := New("My Table", "N", "time")
	tb.AddRow("1024", "5 ms")
	tb.AddRow("65536", "1.2 s")
	out := tb.String()

	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4+0+0 && len(lines) != 5 {
		// title + header + separator + 2 rows
	}
	if lines[0] != "My Table" {
		t.Errorf("title line %q", lines[0])
	}
	if !strings.Contains(lines[1], "N") || !strings.Contains(lines[1], "time") {
		t.Errorf("header %q", lines[1])
	}
	if !strings.Contains(lines[2], "-") {
		t.Errorf("separator %q", lines[2])
	}
	if !strings.Contains(out, "65536") || !strings.Contains(out, "1.2 s") {
		t.Errorf("rows missing:\n%s", out)
	}
	// Right alignment: "1024" should be padded to the width of "65536".
	if !strings.Contains(out, " 1024") {
		t.Errorf("cells not right-aligned:\n%s", out)
	}
}

func TestAddRowPadding(t *testing.T) {
	tb := New("", "a", "b", "c")
	tb.AddRow("1")                // short row padded
	tb.AddRow("1", "2", "3", "4") // long row truncated
	if len(tb.Rows[0]) != 3 || len(tb.Rows[1]) != 3 {
		t.Errorf("row widths: %d, %d", len(tb.Rows[0]), len(tb.Rows[1]))
	}
	if tb.Rows[1][2] != "3" {
		t.Errorf("truncation kept %q", tb.Rows[1][2])
	}
}

func TestSeconds(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{-1, "0"},
		{5e-6, "5.0 us"},
		{1.5e-3, "1.50 ms"},
		{0.5, "500.00 ms"},
		{2.25, "2.250 s"},
		{500, "500.0 s"},
	}
	for _, c := range cases {
		if got := Seconds(c.in); got != c.want {
			t.Errorf("Seconds(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCount(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{0, "0"},
		{999, "999"},
		{1000, "1,000"},
		{1234567, "1,234,567"},
		{-9876543, "-9,876,543"},
	}
	for _, c := range cases {
		if got := Count(c.in); got != c.want {
			t.Errorf("Count(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestGFLOPS(t *testing.T) {
	if got := GFLOPS(431.25); got != "431.2" && got != "431.3" {
		t.Errorf("GFLOPS = %q", got)
	}
}
