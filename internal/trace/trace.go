// Package trace records communication and computation events as a timeline
// that can be inspected programmatically or exported in the Chrome trace
// format (chrome://tracing, Perfetto). The harness and tools use it to make
// per-message behaviour visible: when each exchange posted, matched, and
// completed, how many bytes each message carried, and how phases interleave
// across ranks.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind string

// Event kinds.
const (
	KindSend    Kind = "send"
	KindRecv    Kind = "recv"
	KindWait    Kind = "wait"
	KindPack    Kind = "pack"
	KindCompute Kind = "compute"
	KindPhase   Kind = "phase"
	// KindCkpt marks a quiesce-and-snapshot interval; KindRecovery marks a
	// rewind/respawn interval after an abort. Both land on the critical
	// path in cmd/obsreport when they dominate a step.
	KindCkpt     Kind = "ckpt"
	KindRecovery Kind = "recovery"
	// Flight-recorder export kinds (flight.ToTrace): step boundaries,
	// deliveries, and world aborts, so flight rings render in the same
	// Chrome-trace viewers as live traces.
	KindStep    Kind = "step"
	KindDeliver Kind = "deliver"
	KindAbort   Kind = "abort"
)

// Event is one timed interval on a rank's timeline.
type Event struct {
	Rank  int
	Kind  Kind
	Name  string        // e.g. "send->3 tag=129"
	Start time.Duration // offset from the recorder's epoch
	Dur   time.Duration
	Bytes int64
	Peer  int // peer rank for send/recv, -1 otherwise
}

// Recorder collects events from concurrent ranks. The zero Recorder is not
// usable; construct with NewRecorder. All methods are safe for concurrent
// use.
type Recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	events []Event
}

// NewRecorder starts a recorder whose timeline begins now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// Begin opens an event interval; call the returned func to close it.
func (r *Recorder) Begin(rank int, kind Kind, name string, peer int, bytes int64) func() {
	if r == nil {
		return func() {}
	}
	start := time.Since(r.epoch)
	return func() {
		end := time.Since(r.epoch)
		r.mu.Lock()
		r.events = append(r.events, Event{
			Rank: rank, Kind: kind, Name: name,
			Start: start, Dur: end - start,
			Bytes: bytes, Peer: peer,
		})
		r.mu.Unlock()
	}
}

// Record adds a completed event directly.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by start time.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Summary aggregates total duration and bytes per (rank, kind).
func (r *Recorder) Summary() map[int]map[Kind]struct {
	Dur   time.Duration
	Bytes int64
	Count int
} {
	out := map[int]map[Kind]struct {
		Dur   time.Duration
		Bytes int64
		Count int
	}{}
	for _, e := range r.Events() {
		if out[e.Rank] == nil {
			out[e.Rank] = map[Kind]struct {
				Dur   time.Duration
				Bytes int64
				Count int
			}{}
		}
		s := out[e.Rank][e.Kind]
		s.Dur += e.Dur
		s.Bytes += e.Bytes
		s.Count++
		out[e.Rank][e.Kind] = s
	}
	return out
}

// chromeEvent is the Chrome trace "complete event" (ph=X) JSON shape.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace emits the recorder's timeline in the Chrome trace-event
// JSON array format; see the package-level WriteChromeTrace.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, r.Events())
}

// WriteChromeTrace emits events in the Chrome trace-event JSON array
// format: one row (tid) per rank. Events are streamed one per line rather
// than marshalled as one giant array, and every write's error — including
// short writes, which io.Writer reports as err != nil with n < len — is
// propagated, so a full disk or closed pipe cannot silently truncate the
// trace. Both live recorders and flight-ring exports (flight.ToTrace)
// funnel through here.
func WriteChromeTrace(w io.Writer, evs []Event) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, e := range evs {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  string(e.Kind),
			Ph:   "X",
			Ts:   float64(e.Start.Microseconds()),
			Dur:  float64(e.Dur.Microseconds()),
			Pid:  0,
			Tid:  e.Rank,
		}
		if e.Bytes > 0 || e.Peer >= 0 {
			ce.Args = map[string]any{}
			if e.Bytes > 0 {
				ce.Args["bytes"] = e.Bytes
			}
			if e.Peer >= 0 {
				ce.Args["peer"] = e.Peer
			}
		}
		line, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(evs)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(line, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// ReadChromeTrace parses a trace previously written with WriteChromeTrace
// back into events (the inverse mapping: tid→rank, cat→kind, µs→durations).
// cmd/obsreport uses it to merge a trace with a metrics snapshot.
func ReadChromeTrace(rd io.Reader) ([]Event, error) {
	var ces []chromeEvent
	if err := json.NewDecoder(rd).Decode(&ces); err != nil {
		return nil, fmt.Errorf("trace: parse chrome trace: %w", err)
	}
	out := make([]Event, 0, len(ces))
	for _, ce := range ces {
		e := Event{
			Rank:  ce.Tid,
			Kind:  Kind(ce.Cat),
			Name:  ce.Name,
			Start: time.Duration(ce.Ts * float64(time.Microsecond)),
			Dur:   time.Duration(ce.Dur * float64(time.Microsecond)),
			Peer:  -1,
		}
		if b, ok := ce.Args["bytes"].(float64); ok {
			e.Bytes = int64(b)
		}
		if p, ok := ce.Args["peer"].(float64); ok {
			e.Peer = int(p)
		}
		out = append(out, e)
	}
	return out, nil
}

// String renders a compact textual timeline, for debugging.
func (r *Recorder) String() string {
	s := ""
	for _, e := range r.Events() {
		s += fmt.Sprintf("[%8.3fms +%7.3fms] rank %d %-8s %s (%dB)\n",
			float64(e.Start.Microseconds())/1000, float64(e.Dur.Microseconds())/1000,
			e.Rank, e.Kind, e.Name, e.Bytes)
	}
	return s
}
