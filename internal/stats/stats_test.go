package stats

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "N", "latency", "method")
	tb.AddRow(16, 1.234567, "shared")
	tb.AddRow(32, 250*time.Microsecond, "local")
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	s := tb.String()
	for _, want := range []string{"Figure X", "N", "latency", "shared", "local", "1.235"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "N,latency,method\n") {
		t.Errorf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "16,1.235,shared") {
		t.Errorf("csv row wrong: %q", csv)
	}
}
