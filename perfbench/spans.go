package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call.
type span struct {
	name       string
	start, end time.Duration // since the run's epoch
	parent     int           // index of the enclosing span in the same log, -1 for a root
}

// spanLog is one rank's spans for one implementation. Each rank appends to
// its own log, so recording takes no lock; a nil log records nothing, which
// is how the untraced rounds run the same code.
type spanLog struct {
	epoch    time.Time
	pid, tid int // implementation index and rank, as Chrome-trace process and thread
	spans    []span
}

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{name: name, start: time.Since(l.epoch), parent: parent})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l != nil {
		l.spans[i].end = time.Since(l.epoch)
	}
}

// selfTimes sums, per span name, each span's duration minus the time its
// child spans cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	child := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range l.spans {
		out[s.name] += s.end - s.start - child[i]
	}
	return out
}

// traceEvent is a Chrome-trace complete event; times are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes every log's spans as Chrome-trace JSON; each
// event carries its index and its parent's index within its log.
func writeChromeTrace(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, l := range logs {
		for i, s := range l.spans {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			ev := traceEvent{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
				Pid: l.pid, Tid: l.tid, Args: map[string]int{"id": i, "parent": s.parent}}
			if err := enc.Encode(ev); err != nil {
				return fmt.Errorf("trace file: %w", err)
			}
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
