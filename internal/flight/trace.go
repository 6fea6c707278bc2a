package flight

import (
	"fmt"
	"time"

	"github.com/bricklab/brick/internal/trace"
)

// ToTrace converts a flight snapshot into trace events so recorder output
// flows through the existing Chrome-trace tooling (cmd/obsreport,
// chrome://tracing). Wait Start/Done pairs, keyed by (peer, tag), are fused
// into intervals; everything else becomes a zero-duration marker. A Start whose Done never happened is emitted as
// a marker named "...(unfinished)": in a stall artifact that marker is the
// smoking gun, so it must survive conversion.
func ToTrace(s *Snapshot) []trace.Event {
	if s == nil {
		return nil
	}
	var out []trace.Event
	for _, rl := range s.Ranks {
		type openKey struct{ peer, tag int32 }
		open := map[openKey]Event{}
		for _, e := range rl.Events {
			switch e.Kind {
			case KindWaitStart:
				open[openKey{e.Peer, e.Tag}] = e
			case KindWaitDone:
				k := openKey{e.Peer, e.Tag}
				if s0, ok := open[k]; ok {
					delete(open, k)
					out = append(out, interval(rl.Rank, trace.KindWait,
						fmt.Sprintf("wait peer=%d tag=%d", e.Peer, e.Tag), s0, e))
				} else {
					out = append(out, marker(rl.Rank, trace.KindWait, "wait-done", e))
				}
			default:
				out = append(out, marker(rl.Rank, pointKind(e.Kind), pointName(e), e))
			}
		}
		for _, s0 := range open {
			out = append(out, marker(rl.Rank, trace.KindWait,
				fmt.Sprintf("wait peer=%d tag=%d (unfinished)", s0.Peer, s0.Tag), s0))
		}
	}
	return out
}

func interval(rank int, kind trace.Kind, name string, start, end Event) trace.Event {
	return trace.Event{
		Rank: rank, Kind: kind, Name: name,
		Start: time.Duration(start.Nanos), Dur: time.Duration(end.Nanos - start.Nanos),
		Bytes: end.Bytes, Peer: int(end.Peer),
	}
}

func marker(rank int, kind trace.Kind, name string, e Event) trace.Event {
	return trace.Event{
		Rank: rank, Kind: kind, Name: name,
		Start: time.Duration(e.Nanos),
		Bytes: e.Bytes, Peer: int(e.Peer),
	}
}

func pointKind(k Kind) trace.Kind {
	switch k {
	case KindSendPost:
		return trace.KindSend
	case KindRecvPost:
		return trace.KindRecv
	case KindDeliver:
		return trace.KindDeliver
	case KindStep:
		return trace.KindStep
	case KindPhase:
		return trace.KindPhase
	case KindCkpt:
		return trace.KindCkpt
	case KindRecovery:
		return trace.KindRecovery
	case KindAbort:
		return trace.KindAbort
	default:
		return trace.Kind(k.String())
	}
}

func pointName(e Event) string {
	switch e.Kind {
	case KindSendPost:
		return fmt.Sprintf("send->%d tag=%d seq=%d", e.Peer, e.Tag, e.Seq)
	case KindRecvPost:
		return fmt.Sprintf("recv<-%d tag=%d", e.Peer, e.Tag)
	case KindDeliver:
		return fmt.Sprintf("deliver<-%d tag=%d seq=%d", e.Peer, e.Tag, e.Seq)
	case KindStep:
		return fmt.Sprintf("step %d", e.Step)
	case KindPhase:
		return "phase " + phaseName(e.Part)
	default:
		return e.Kind.String()
	}
}
