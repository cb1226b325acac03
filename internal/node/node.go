// Package node is the unit the paper deploys: one game server paired with
// its co-located Matrix server. It holds the one copy of their wiring — the
// decision policy, the Matrix server, the game server and the ResolveOwner
// binding between them — and the one game-server→Matrix-server dispatch
// every driver runs: the deterministic simulator steps each node in phase A
// of its tick engine, and the live host steps its node on the tick
// goroutine.
//
// Like the components it pairs, a Node does no I/O. Step and Report append
// the envelopes to deliver to a caller-owned slice, in emission order, and
// the driver routes them: to the coordinator, to peers, back to the game
// server, and (core.DestClient) to game clients.
package node

import (
	"matrix/internal/clock"
	"matrix/internal/core"
	"matrix/internal/gameserver"
	"matrix/internal/id"
	"matrix/internal/load"
	"matrix/internal/policy"
	"matrix/internal/protocol"
	"matrix/internal/scratch"
	"matrix/internal/trace"
)

// Config tunes a node.
type Config struct {
	// Radius is the game's visibility radius.
	Radius float64
	// Load tunes the split/reclaim thresholds (zero value = paper defaults).
	Load load.Config
	// Policy names the decision policy (internal/policy) that judges the
	// node's splits and reclaims. Empty means the paper's rules.
	Policy string
	// Clock drives the policy timers (nil = wall clock).
	Clock clock.Clock
	// MaxQueue bounds the game server's receive queue (0 = unbounded).
	MaxQueue int
}

// Node is one game server and its co-located Matrix server. Step and
// Report are not safe for concurrent use with each other; the two servers
// themselves are.
type Node struct {
	Core *core.Server
	Game *gameserver.Server

	// Tracer, when non-nil, marks each game update's hand-off to the Matrix
	// server as the "core-handle" step of its packet span, on trace process
	// TracePid. Nil — the default — costs nothing.
	Tracer   *trace.Tracer
	TracePid int32

	gsBuf scratch.Buf[gameserver.Envelope]
}

// New builds a node from its registration reply: a fresh policy instance,
// the Matrix server, and a game server whose boundary handoffs resolve
// against that Matrix server.
func New(reply *protocol.RegisterReply, cfg Config) (*Node, error) {
	pol, err := policy.New(cfg.Policy)
	if err != nil {
		return nil, err
	}
	cs, err := core.NewServer(core.Config{Load: cfg.Load, Clock: cfg.Clock, Policy: pol}, reply, cfg.Radius)
	if err != nil {
		return nil, err
	}
	gs, err := gameserver.New(gameserver.Config{
		Server:       reply.Server,
		Bounds:       reply.Bounds,
		Radius:       cfg.Radius,
		MaxQueue:     cfg.MaxQueue,
		ResolveOwner: cs.ResolveOwner,
	})
	if err != nil {
		return nil, err
	}
	return &Node{Core: cs, Game: gs}, nil
}

// Faults tallies what one Step could not handle. Neither kind stops the
// step: the game server keeps draining and the Matrix server keeps routing.
type Faults struct {
	// Game is the game server's first processing error (nil when none).
	Game error
	// Core counts game-server messages the Matrix server rejected. An
	// inactive server legitimately rejects packets in flight across a
	// topology change. A rejected message contributes no envelopes.
	Core int
	// CoreErr is the first of those rejections.
	CoreErr error
}

// Step drains up to budget messages from the game server's queue (all of
// them when budget <= 0) and hands each message bound for the Matrix server
// to it: game updates through AppendGameUpdate, everything else (state
// transfers) through HandleMessage. It appends every resulting envelope to
// dst in emission order — the game server's client deliveries as
// core.DestClient envelopes — and returns the extended slice.
//
// Messages are drained one at a time, so the node's reused game-server
// buffer only ever holds one message's fallout, not a whole tick's. The
// set drained is fixed when Step starts: messages enqueued meanwhile wait
// for the next step. A caller that passes the same dst back every tick
// (`dst, f = n.Step(dst[:0], budget)` after routing it) steps without
// allocating in steady state.
func (n *Node) Step(dst []core.Envelope, budget int) ([]core.Envelope, Faults) {
	var f Faults
	todo := n.Game.QueueLen()
	if budget > 0 && budget < todo {
		todo = budget
	}
	for ; todo > 0; todo-- {
		envs, err := n.Game.ProcessAppend(n.gsBuf.Take(), 1)
		if f.Game == nil {
			f.Game = err
		}
		for _, e := range envs {
			switch e.Dest {
			case gameserver.DestClient:
				dst = append(dst, core.Envelope{Dest: core.DestClient, Client: e.Client, Msg: e.Msg})
			case gameserver.DestMatrix:
				dst = n.toCore(dst, e.Msg, &f)
			}
		}
		n.gsBuf.Done(envs)
	}
	return dst, f
}

// toCore hands one game-server message to the Matrix server, appending
// its envelopes to dst. A rejected message leaves dst as it was and is
// counted in f.
func (n *Node) toCore(dst []core.Envelope, m protocol.Message, f *Faults) []core.Envelope {
	mark := len(dst)
	var err error
	if u, isUpdate := m.(*protocol.GameUpdate); isUpdate {
		if n.Tracer != nil {
			n.Tracer.AsyncStep(n.TracePid, "packet", "core-handle", PacketSpanID(u.Client, u.Seq), n.Tracer.Now())
		}
		dst, err = n.Core.AppendGameUpdate(dst, u)
	} else {
		var out []core.Envelope
		out, err = n.Core.HandleMessage(id.None, m)
		dst = append(dst, out...)
	}
	if err != nil {
		f.Core++
		if f.CoreErr == nil {
			f.CoreErr = err
		}
		return dst[:mark]
	}
	return dst
}

// Report runs the periodic load report: the game server's client count and
// queue length feed the Matrix server's split/reclaim policy, and the
// coordinator traffic it emits is appended to dst. A spare node (one that
// owns no partition) reports nothing.
func (n *Node) Report(dst []core.Envelope) ([]core.Envelope, error) {
	if !n.Core.Active() {
		return dst, nil
	}
	rep := n.Game.LoadReport()
	envs, err := n.Core.HandleLocalLoad(int(rep.Clients), int(rep.QueueLen))
	return append(dst, envs...), err
}

// PacketSpanID correlates one client packet across every layer and server
// that touches it: the client id in the high bits, the packet sequence in
// the low 24 (a client emits far fewer than 16M updates per span window).
func PacketSpanID(c id.ClientID, seq id.PacketSeq) uint64 {
	return uint64(c)<<24 | uint64(seq)&0xFFFFFF
}
