// The intra-sim parallel tick engine: one simulation's per-server hot
// path — game-server inbox processing and the co-located Matrix server's
// packet/load logic — fans out across a bounded worker pool without
// changing a single byte of the run's Result.Fingerprint.
//
// The tick is split into two phases:
//
//   - Phase A (parallel): every live server's node (internal/node) drains
//     its own inbox and hands its own game updates and load report to its
//     co-located Matrix server. This work reads and writes only that
//     server's state (the game server, its spatial grid, and the co-located
//     core — including the ResolveOwner binding between the two) and emits
//     envelopes into a per-server output slot. No shared state is touched: no coordinator,
//     no netem model, no RNG, no clients, no metrics registry.
//
//   - Phase B (serial): the buffered fallout is merged in canonical server
//     order (registration order, the same order the serial loop uses) and
//     routed exactly as before — peer delivery, MC requests, client
//     delivery, netem judging. Everything order-sensitive (per-link netem
//     RNG draws, inbox append order, MC grant order, client event order)
//     happens here, on one goroutine, in an order that does not depend on
//     how phase A was scheduled.
//
// Workers claim servers through an atomic cursor, so WHICH worker runs a
// server is scheduling noise — but each server's output lands in its own
// slot and its computation touches only its own state, so the merged tick
// is byte-identical for any SimWorkers value (pinned by the equivalence
// tests and the race suite).
package sim

import (
	"sync"
	"sync/atomic"

	"matrix/internal/core"
	"matrix/internal/node"
	"matrix/internal/scratch"
)

// serverOut is one server's buffered phase-A fallout, reused across ticks:
// every envelope its node emitted, in emission order. Only the worker that
// claimed the server writes it during phase A; phase B consumes it on the
// stepping goroutine.
type serverOut struct {
	envs     []core.Envelope
	gsErrs   int64 // gs processing errors, merged into errors/gs
	coreErrs int64 // core handling errors, merged into errors/core

	buf scratch.Buf[core.Envelope]
}

// reset readies the slot for a new phase A.
func (o *serverOut) reset() {
	o.envs = o.buf.Take()
	o.gsErrs, o.coreErrs = 0, 0
}

// release returns the consumed buffer for reuse, clearing message pointers
// so a burst tick's envelopes are not pinned until the next one.
func (o *serverOut) release() {
	o.buf.Done(o.envs)
	o.envs = nil
}

// ensureEngine sizes the per-server output slots and returns the worker
// count. Cheap when already sized; called once per Step so a restored sim
// (which skips Start) and a mid-run SetSimWorkers both work.
func (s *Sim) ensureEngine() int {
	w := s.cfg.SimWorkers
	if w < 1 {
		w = 1
	}
	if n := len(s.order); len(s.outs) < n {
		s.outs = append(s.outs, make([]serverOut, n-len(s.outs))...)
	}
	return w
}

// liveServers rebuilds s.live: the positions (indexes into s.order) of
// every server that processes this tick. Crashed servers are frozen —
// their queues keep whatever arrived before the crash and resume draining
// on recovery. Computed serially so phase A never reads the netem model.
func (s *Sim) liveServers() {
	s.live = s.live[:0]
	for i, sid := range s.order {
		if s.nm != nil && s.nm.Crashed(sid) {
			continue
		}
		s.live = append(s.live, i)
	}
}

// runPhaseA executes f(worker, orderIndex) for every live server, fanning
// out to at most `workers` goroutines. The atomic cursor makes the
// server→worker assignment scheduling-dependent, which is safe because f
// only touches the claimed server's own state and its own output slot.
func (s *Sim) runPhaseA(workers int, f func(w, idx int)) {
	if workers > len(s.live) {
		workers = len(s.live)
	}
	if workers <= 1 {
		for _, idx := range s.live {
			f(0, idx)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(s.live) {
					return
				}
				f(k, s.live[i])
			}
		}(k)
	}
	wg.Wait()
}

// processNode is phase A of the queue-processing step for one server: its
// node drains up to the service budget and hands the fallout to the
// co-located Matrix server, buffering every outbound envelope. Reads and
// writes only this server's state.
func (s *Sim) processNode(_, idx int) {
	out := &s.outs[idx]
	out.reset()
	var f node.Faults
	out.envs, f = s.nodes[s.order[idx]].Step(out.envs, s.cfg.ServiceRatePerTick)
	if f.Game != nil {
		out.gsErrs++
	}
	// Inactive servers legitimately reject packets in flight across a
	// topology change; Step counts them and routes nothing for them.
	out.coreErrs += int64(f.Core)
}

// loadReportNode is phase A of the load-report step for one server: its
// node runs the core's split/reclaim policy on the game server's load,
// buffering the MC traffic it emits. Reads and writes only this server's
// state (the policy clock is read-only during a tick).
func (s *Sim) loadReportNode(idx int) {
	out := &s.outs[idx]
	out.reset()
	var err error
	if out.envs, err = s.nodes[s.order[idx]].Report(out.envs); err != nil {
		out.coreErrs++
	}
}

// routePhaseB merges every live server's buffered fallout in canonical
// server order and routes it. This is the only place the buffered
// envelopes touch shared state — the coordinator, peer servers, clients,
// the netem model and its per-link RNG streams — so one canonical order
// (registration order, then emission order within a server) governs every
// order-sensitive effect regardless of how phase A was scheduled.
func (s *Sim) routePhaseB() {
	for _, idx := range s.live {
		sid := s.order[idx]
		out := &s.outs[idx]
		if out.gsErrs > 0 {
			s.reg.Counter("errors/gs").Add(out.gsErrs)
		}
		if out.coreErrs > 0 {
			s.reg.Counter("errors/core").Add(out.coreErrs)
		}
		s.routeCoreEnvelopes(sid, out.envs)
		out.release()
	}
}
