package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one harness-side interval around a call into a layer: the traced
// pass records them from the benchmark's own files (in-program spans are a
// later change). Spans of one operation share Op; Parent is -1 at the root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is the untraced pass.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: now()} }

// begin opens a span and returns its id (-1 on a nil log).
func (l *spanLog) begin(name string, parent, op int) int {
	if l == nil {
		return -1
	}
	at := us(since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Op: op, Name: name, StartUS: at, EndUS: at})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	at := us(since(l.t0))
	l.mu.Lock()
	l.spans[id].EndUS = at
	l.mu.Unlock()
}

// ended records an interval of length d that ends now and returns its id:
// for latencies measured elsewhere (a reply's client-side latency) and for
// durations the program under test reports about itself (a response's
// host-wall header).
func (l *spanLog) ended(name string, parent, op int, d time.Duration) int {
	if l == nil {
		return -1
	}
	end := us(since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Op: op, Name: name, StartUS: end - us(d), EndUS: end})
	return len(l.spans) - 1
}

// time runs fn inside a span and returns its duration.
func (l *spanLog) time(name string, parent, op int, fn func()) time.Duration {
	id := l.begin(name, parent, op)
	d := timeIt(fn)
	l.end(id)
	return d
}

// selfUS is a span's duration minus the part its direct children cover.
func (l *spanLog) selfUS(id int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	self := l.spans[id].EndUS - l.spans[id].StartUS
	for _, s := range l.spans {
		if s.Parent == id {
			self -= s.EndUS - s.StartUS
		}
	}
	return self
}

func (l *spanLog) durUS(id int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans[id].EndUS - l.spans[id].StartUS
}

// write dumps the spans as JSON.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	data, err := json.MarshalIndent(l.spans, "", " ")
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
