package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The benchmark's own span recorder. It wraps the calls the driver
// goroutine makes into the program; nothing inside the program is
// instrumented. Spans are held in memory and written as a Chrome
// trace-event array when the run ends. A nil recorder records nothing,
// which is how the untraced run is untraced.

type span struct {
	name       string
	start, end time.Duration // since the recorder was made
	parent     int           // index of the span that caused it, -1 for a root
	round      int           // shared by all spans of one round, -1 outside rounds
	synth      bool          // laid out from returned StageTimes, not timed here
}

type spanRecorder struct {
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span now and returns its index.
func (r *spanRecorder) begin(name string, parent, round int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.spans = append(r.spans, span{name: name, start: now, end: now, parent: parent, round: round})
	return len(r.spans) - 1
}

func (r *spanRecorder) finish(id int) {
	if r == nil {
		return
	}
	r.spans[id].end = time.Since(r.t0)
}

// child adds an already-measured interval under parent, starting at
// offset from the parent's start and clipped to the parent.
func (r *spanRecorder) child(name string, parent int, offset, dur time.Duration, synth bool) int {
	if r == nil {
		return -1
	}
	p := r.spans[parent]
	start := min(p.start+offset, p.end)
	end := min(start+dur, p.end)
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, round: p.round, synth: synth})
	return len(r.spans) - 1
}

// selfTimes returns, for every span called name, its duration minus
// the part its children cover (children of one span never overlap
// here).
func (r *spanRecorder) selfTimes(name string) []time.Duration {
	covered := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	var out []time.Duration
	for i, s := range r.spans {
		if s.name == name {
			out = append(out, s.end-s.start-covered[i])
		}
	}
	return out
}

type chromeArgs struct {
	ID     int `json:"id"`
	Parent int `json:"parent"`
	Round  int `json:"round"`
}

type chromeEvent struct {
	Name  string     `json:"name"`
	Cat   string     `json:"cat"`
	Phase string     `json:"ph"`
	TS    int64      `json:"ts"`
	Dur   int64      `json:"dur"`
	PID   int        `json:"pid"`
	TID   int        `json:"tid"`
	Args  chromeArgs `json:"args"`
}

// writeChrome writes the spans as complete ("X") events on one thread,
// ordered by start time with parents before their children, which is
// what ca3dmm.ValidateChromeTrace and Perfetto expect.
func (r *spanRecorder) writeChrome(w io.Writer) error {
	out := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		cat := "bench"
		if s.synth {
			cat = "stage-times"
		}
		out[i] = chromeEvent{
			Name: s.name, Cat: cat, Phase: "X",
			TS: s.start.Microseconds(), Dur: (s.end - s.start).Microseconds(),
			Args: chromeArgs{ID: i, Parent: s.parent, Round: s.round},
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Dur > out[j].Dur
	})
	return json.NewEncoder(w).Encode(out)
}

func (r *spanRecorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
