package main

import (
	"fmt"
	"time"

	"repro/internal/monitorhub"
)

// hubWarmupRounds run before measuring: every stream learns its baseline
// and completes a first placement.
const hubWarmupRounds = 2 * hubCycleRound

// hubTrace collects the traced run's hub-side timings.
type hubTrace struct {
	feed    time.Duration // inside the feed functions
	packets int
	drain   []float64 // ms from a round's last feed to its last verdict
}

// hubResult is one pass of rounds.
type hubResult struct {
	rounds     []float64 // ms per round
	wall, cpu  time.Duration
	start, end monitorhub.Totals
}

// runHubRounds feeds rounds [r0, r1): each round is one stride of packets
// to every stream, interleaved packet by packet as a real hub sees them,
// and ends when every session it emitted has a verdict. After each round
// the placements that ended in it are scored.
func runHubRounds(st *stack, script *hubScript, r0, r1 int, o *hubOracle, tr *hubTrace) (*hubResult, error) {
	ends := map[int][]placement{}
	for _, p := range script.placements {
		if p.endRound >= r0 && p.endRound < r1 {
			ends[p.endRound] = append(ends[p.endRound], p)
		}
	}
	res := &hubResult{start: st.hub.Snapshot(noStream, 0).Totals}
	cpu0, t0 := cpuTime(), time.Now()
	for r := r0; r < r1; r++ {
		roundStart := time.Now()
		for p := 0; p < hubStride; p++ {
			i := r*hubStride + p
			for s, feed := range st.feeds {
				pkt := script.packet(s, i)
				if tr == nil {
					if err := feed(pkt); err != nil {
						return nil, err
					}
					continue
				}
				f0 := time.Now()
				err := feed(pkt)
				tr.feed += time.Since(f0)
				tr.packets++
				if err != nil {
					return nil, err
				}
			}
		}
		fed := time.Now()
		totals, err := awaitVerdicts(st.hub, fed.Add(10*time.Second))
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		done := time.Now()
		res.rounds = append(res.rounds, ms(done.Sub(roundStart)))
		if tr != nil {
			tr.drain = append(tr.drain, ms(done.Sub(fed)))
		}
		if len(ends[r]) > 0 {
			rows := st.hub.Snapshot("", 0).Streams
			for _, p := range ends[r] {
				if rows[p.stream].ID != streamID(p.stream) {
					return nil, fmt.Errorf("snapshot row %d is stream %q", p.stream, rows[p.stream].ID)
				}
				o.placement(p, rows[p.stream].Confirmed)
			}
		}
		res.end = totals
	}
	res.wall, res.cpu = time.Since(t0), cpuTime()-cpu0
	o.shed += res.end.Shed - res.start.Shed
	o.failed += res.end.Failed - res.start.Failed
	return res, nil
}

func streamID(s int) string { return fmt.Sprintf("stream-%02d", s) }

// noStream names no stream: a snapshot filtered on it carries the fleet
// totals without building every stream's row.
const noStream = "-"

// awaitVerdicts polls the hub's public snapshot until every emitted
// session is accounted for: identified, failed or shed.
func awaitVerdicts(h *monitorhub.Hub, deadline time.Time) (monitorhub.Totals, error) {
	for {
		t := h.Snapshot(noStream, 0).Totals
		if t.Identified+t.Failed+t.Shed >= t.Sessions {
			return t, nil
		}
		if time.Now().After(deadline) {
			return t, fmt.Errorf("%d of %d sessions still without a verdict",
				t.Sessions-t.Identified-t.Failed-t.Shed, t.Sessions)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// sessions is how many sessions the pass emitted.
func (r *hubResult) sessions() uint64 { return r.end.Sessions - r.start.Sessions }

// runHubFleet drives the hub-fleet workload: warm-up rounds, then the
// measured rounds in measuredSegments segments.
func runHubFleet(st *stack, script *hubScript, rounds int, o *hubOracle) (e2e, error) {
	if _, err := runHubRounds(st, script, 0, hubWarmupRounds, o, nil); err != nil {
		return e2e{}, err
	}
	var parts []e2e
	for _, r := range segments(rounds, measuredSegments) {
		res, err := runHubRounds(st, script, hubWarmupRounds+r[0], hubWarmupRounds+r[1], o, nil)
		if err != nil {
			return e2e{}, err
		}
		n := res.sessions()
		parts = append(parts, e2e{
			p50:        percentile(append([]float64(nil), res.rounds...), 50),
			p90:        percentile(append([]float64(nil), res.rounds...), 90),
			throughput: float64(res.end.Identified-res.start.Identified) / res.wall.Seconds(),
			cpuPerOp:   ms(res.cpu) / float64(n),
			ops:        int(n),
			failed:     int(res.end.Shed - res.start.Shed + res.end.Failed - res.start.Failed),
		})
	}
	return combine(parts), nil
}
