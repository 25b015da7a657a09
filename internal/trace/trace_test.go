package trace

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"
)

func TestLogRecordAndCSV(t *testing.T) {
	events := []Event{
		{Step: 1, InputIdx: 42, Arm: 3, Reward: 0.5, Produced: true, Useful: true, SimTime: 20 * time.Millisecond},
		{Step: 2, InputIdx: 7, Err: "boom"},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "1,42,3,0.500000,true,true") {
		t.Fatalf("row 1 wrong: %s", lines[1])
	}
	if !strings.Contains(lines[2], `"boom"`) {
		t.Fatalf("error not quoted: %s", lines[2])
	}
	if !strings.Contains(lines[1], "20.000") {
		t.Fatalf("sim time wrong: %s", lines[1])
	}
}

func TestWriteCSVParsesBack(t *testing.T) {
	// The Err column carries arbitrary feature-code panic text; commas,
	// quotes and newlines in it must survive a real CSV parser round-trip.
	events := []Event{
		{Step: 1, InputIdx: 9, Arm: 2, Reward: 1, Produced: true, SimTime: time.Second},
		{Step: 2, Err: `panic: bad "input", see log`},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2", len(rows))
	}
	header := strings.Join(rows[0], ",")
	if header != "step,input,arm,reward,produced,useful,err,sim_ms,cache_hit,quarantined" {
		t.Fatalf("header = %q", header)
	}
	if rows[1][0] != "1" || rows[1][1] != "9" || rows[1][2] != "2" || rows[1][7] != "1000.000" {
		t.Fatalf("row 1 = %v", rows[1])
	}
	if rows[2][6] != `panic: bad "input", see log` {
		t.Fatalf("err column mangled: %q", rows[2][6])
	}
}

func TestWriteCSVNilLogHeaderOnly(t *testing.T) {
	// A nil event list is a valid "nothing was retained" value end to
	// end: WriteCSV must emit exactly the header so downstream tooling
	// sees an empty, well-formed table.
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 10 {
		t.Fatalf("nil log CSV = %v, want a single 10-column header", rows)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "zombie"}
	s.AddPoint(0, 0.1)
	s.AddPoint(25, 0.4)
	if len(s.X) != 2 {
		t.Fatalf("len(X) = %d", len(s.X))
	}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, s, &Series{Name: "scan", X: []float64{0}, Y: []float64{0.1}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "zombie,25,0.4") || !strings.Contains(out, "scan,0,0.1") {
		t.Fatalf("series CSV wrong:\n%s", out)
	}
}

func TestWriteSeriesCSVCorrupt(t *testing.T) {
	bad := &Series{Name: "bad", X: []float64{1, 2}, Y: []float64{1}}
	if err := WriteSeriesCSV(&bytes.Buffer{}, bad); err == nil {
		t.Fatal("expected error for corrupt series")
	}
}

func TestSeriesAddPointPanicsOnCorrupt(t *testing.T) {
	s := &Series{Name: "x", X: []float64{1}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.AddPoint(2, 2)
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n--
	if w.n < 0 {
		return 0, errFail
	}
	return len(p), nil
}

var errFail = &failErr{}

type failErr struct{}

func (*failErr) Error() string { return "injected write failure" }

func TestWriteCSVPropagatesWriterErrors(t *testing.T) {
	events := []Event{{Step: 1}}
	// Fail on the header.
	if err := WriteCSV(&failWriter{n: 0}, events); err == nil {
		t.Fatal("header write error swallowed")
	}
	// Fail on the first row.
	if err := WriteCSV(&failWriter{n: 1}, events); err == nil {
		t.Fatal("row write error swallowed")
	}
}

func TestWriteSeriesCSVPropagatesWriterErrors(t *testing.T) {
	s := &Series{Name: "a", X: []float64{1}, Y: []float64{2}}
	if err := WriteSeriesCSV(&failWriter{n: 0}, s); err == nil {
		t.Fatal("header write error swallowed")
	}
	if err := WriteSeriesCSV(&failWriter{n: 1}, s); err == nil {
		t.Fatal("row write error swallowed")
	}
}
