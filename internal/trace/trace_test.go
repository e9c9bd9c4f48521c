// Package trace holds the span-timeline tests of the observability
// recorder. The package they were written against — an alias shim over
// internal/obs — is gone; the tests stay at this import path so their
// names in the suite do not change, and exercise obs.Recorder directly.
package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRecorderSpans(t *testing.T) {
	r := obs.NewRecorder()
	end := r.Begin(0, "stage-a")
	time.Sleep(time.Millisecond)
	end()
	end = r.Begin(1, "stage-b")
	end()
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Rank != 0 || spans[0].Name != "stage-a" {
		t.Fatalf("first span %+v", spans[0])
	}
	if spans[0].End <= spans[0].Start {
		t.Fatal("span has no duration")
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var r *obs.Recorder
	end := r.Begin(0, "x") // must not panic
	end()
}

func TestSpansSorted(t *testing.T) {
	r := obs.NewRecorder()
	r.Begin(2, "later")()
	r.Begin(0, "first")()
	r.Begin(1, "mid")()
	spans := r.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Rank < spans[i-1].Rank {
			t.Fatalf("spans not sorted by rank: %+v", spans)
		}
	}
}

func TestStageTotals(t *testing.T) {
	r := obs.NewRecorder()
	for i := 0; i < 3; i++ {
		end := r.Begin(i, "gemm")
		end()
	}
	totals := r.StageTotals()
	if len(totals) != 1 {
		t.Fatalf("totals %v", totals)
	}
	if _, ok := totals["gemm"]; !ok {
		t.Fatal("missing stage")
	}
}

func TestWriteChrome(t *testing.T) {
	r := obs.NewRecorder()
	r.Begin(0, "alpha")()
	r.Begin(3, "beta")()
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events", len(events))
	}
	if events[0]["ph"] != "X" {
		t.Fatalf("phase %v", events[0]["ph"])
	}
}

func TestSummary(t *testing.T) {
	r := obs.NewRecorder()
	end := r.Begin(0, "big")
	time.Sleep(2 * time.Millisecond)
	end()
	r.Begin(0, "small")()
	s := r.Summary()
	if !strings.Contains(s, "big") || !strings.Contains(s, "small") {
		t.Fatalf("summary %q", s)
	}
	// Longest stage first.
	if strings.Index(s, "big") > strings.Index(s, "small") {
		t.Fatalf("summary not sorted by duration:\n%s", s)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := obs.NewRecorder()
	done := make(chan struct{})
	for rank := 0; rank < 8; rank++ {
		go func(rank int) {
			for i := 0; i < 50; i++ {
				r.Begin(rank, "work")()
			}
			done <- struct{}{}
		}(rank)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := len(r.Spans()); got != 400 {
		t.Fatalf("got %d spans, want 400", got)
	}
}
