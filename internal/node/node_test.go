package node

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"matrix/internal/core"
	"matrix/internal/geom"
	"matrix/internal/id"
	"matrix/internal/overlap"
	"matrix/internal/protocol"
	"matrix/internal/space"
	"matrix/internal/trace"
)

const testRadius = 5.0

var testWorld = geom.R(0, 0, 100, 100)

// newTestNode builds node sid owning bounds (a spare when empty).
func newTestNode(t *testing.T, sid id.ServerID, bounds geom.Rect) *Node {
	t.Helper()
	n, err := New(&protocol.RegisterReply{Server: sid, Bounds: bounds, World: testWorld}, Config{Radius: testRadius})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// installTable pushes node's overlap table for the given partitioning, as
// the coordinator would.
func installTable(t *testing.T, n *Node, parts []space.Partition, version uint64) {
	t.Helper()
	tabs, err := overlap.BuildAll(parts, testRadius, version)
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[n.Core.ID()]
	var peers []protocol.PeerAddr
	for _, p := range parts {
		if p.Owner != n.Core.ID() {
			peers = append(peers, protocol.PeerAddr{Server: p.Owner, Addr: "addr-of-" + p.Owner.String(), Bounds: p.Bounds})
		}
	}
	if _, err := n.Core.HandleMessage(id.None, &protocol.OverlapTable{
		Server:  n.Core.ID(),
		Version: version,
		Bounds:  tab.Bounds(),
		Radius:  testRadius,
		Regions: protocol.RegionsToWire(tab.Regions()),
		Peers:   peers,
	}); err != nil {
		t.Fatal(err)
	}
}

func enqueue(t *testing.T, n *Node, msgs ...protocol.Message) {
	t.Helper()
	for _, m := range msgs {
		if err := n.Game.Enqueue(m); err != nil {
			t.Fatal(err)
		}
	}
}

func move(c id.ClientID, seq id.PacketSeq, from, to geom.Point) *protocol.GameUpdate {
	return &protocol.GameUpdate{Client: c, Seq: seq, Kind: protocol.KindMove, Origin: from, Dest: to}
}

// migrationScript drives one node through joins, quiet traffic, a granted
// split (range change → state transfer + redirects), forwarding across
// the new boundary, and a boundary-crossing move (handoff). step runs one
// node Step and returns that step's envelopes; the script routes the
// Matrix server's game-server-bound fallout back into the node, as every
// driver does.
func migrationScript(t *testing.T, n *Node, step func() []core.Envelope) [][]core.Envelope {
	t.Helper()
	var stream [][]core.Envelope
	run := func() {
		out := step()
		if len(out) == 0 {
			out = nil // a quiet step reads the same into either kind of dst
		}
		for _, e := range out {
			if e.Dest == core.DestGameServer {
				enqueue(t, n, e.Msg)
			}
		}
		stream = append(stream, out)
	}
	whole := []space.Partition{{Owner: 1, Bounds: testWorld}}
	installTable(t, n, whole, 1)
	pos := func(c id.ClientID) geom.Point { return geom.Pt(10+float64(c)*4, 50) }
	for c := id.ClientID(1); c <= 20; c++ {
		enqueue(t, n, &protocol.ClientHello{Client: c, Pos: pos(c)})
	}
	run()
	for c := id.ClientID(1); c <= 20; c++ {
		enqueue(t, n, move(c, 1, pos(c), pos(c).Add(geom.Pt(0.5, 0.5))))
	}
	run()

	// The coordinator grants a split: the left half goes to server 2.
	envs, err := n.Core.HandleMessage(id.None, &protocol.SplitReply{
		Granted: true, Child: 2, ChildAddr: "addr-of-server-2",
		Keep: geom.R(50, 0, 100, 100), Give: geom.R(0, 0, 50, 100), Corr: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range envs {
		if e.Dest == core.DestGameServer {
			enqueue(t, n, e.Msg)
		}
	}
	installTable(t, n, []space.Partition{
		{Owner: 1, Bounds: geom.R(50, 0, 100, 100)},
		{Owner: 2, Bounds: geom.R(0, 0, 50, 100)},
	}, 2)
	run() // range change: state transfers and redirects

	// Survivors near the boundary forward to the new peer; client 13
	// walks across the boundary and is handed off.
	for c := id.ClientID(11); c <= 20; c++ {
		p := pos(c).Add(geom.Pt(0.5, 0.5))
		to := p
		if c == 13 {
			to = geom.Pt(48, 50)
		}
		enqueue(t, n, move(c, 2, p, to))
	}
	run()
	run() // the handoff's fallout has drained; a quiet step
	return stream
}

// TestStepReusedDstMatchesFresh is the buffer-aliasing contract: a node
// stepped into one reused dst emits exactly the envelope stream of a node
// stepped into a fresh nil dst every time — including messages an earlier
// step emitted, which a later step must never rewrite — across a split
// and client migrations.
func TestStepReusedDstMatchesFresh(t *testing.T) {
	fresh := newTestNode(t, 1, testWorld)
	want := migrationScript(t, fresh, func() []core.Envelope {
		out, f := fresh.Step(nil, 0)
		if f != (Faults{}) {
			t.Fatalf("fresh step faulted: %+v", f)
		}
		return out
	})

	reused := newTestNode(t, 1, testWorld)
	buf := make([]core.Envelope, 0, 4)
	got := migrationScript(t, reused, func() []core.Envelope {
		var f Faults
		buf, f = reused.Step(buf[:0], 0)
		if f != (Faults{}) {
			t.Fatalf("reused step faulted: %+v", f)
		}
		return slices.Clone(buf)
	})

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reused-dst stream diverges from fresh-dst stream:\nreused: %+v\nfresh:  %+v", got, want)
	}
	// The script must really have exercised the migration paths.
	var redirects, transfers, forwards int
	for _, out := range want {
		for _, e := range out {
			switch m := e.Msg.(type) {
			case *protocol.Redirect:
				if e.Dest == core.DestClient && m.NewOwner == 2 {
					redirects++
				}
			case *protocol.StateTransfer:
				if e.Dest == core.DestPeer && e.Peer == 2 {
					transfers++
				}
			case *protocol.Forward:
				if e.Dest == core.DestPeer && e.Peer == 2 {
					forwards++
				}
			}
		}
	}
	if redirects < 10 || transfers < 2 || forwards == 0 {
		t.Errorf("script too quiet: %d redirects, %d transfers, %d forwards", redirects, transfers, forwards)
	}
}

// TestStepAppendsAfterPrefix: Step only appends; what the caller already
// holds in dst is left alone.
func TestStepAppendsAfterPrefix(t *testing.T) {
	n := newTestNode(t, 1, testWorld)
	installTable(t, n, []space.Partition{{Owner: 1, Bounds: testWorld}}, 1)
	enqueue(t, n, &protocol.ClientHello{Client: 1, Pos: geom.Pt(10, 10)})
	sentinel := core.Envelope{Dest: core.DestCoordinator, Msg: &protocol.LoadReport{Server: 9}}
	out, _ := n.Step([]core.Envelope{sentinel}, 0)
	if len(out) != 2 || !reflect.DeepEqual(out[0], sentinel) {
		t.Fatalf("prefix not preserved: %+v", out)
	}
	if out[1].Dest != core.DestClient || out[1].Client != 1 {
		t.Fatalf("welcome not appended as a client envelope: %+v", out[1])
	}
}

// TestStepZeroAllocSteadyState is the node's per-tick allocation budget,
// the same shape as the game server's: with connected clients, a reused
// dst and no tracer, stepping a same-cell move that forwards nowhere must
// not allocate.
func TestStepZeroAllocSteadyState(t *testing.T) {
	n := newTestNode(t, 1, testWorld)
	installTable(t, n, []space.Partition{{Owner: 1, Bounds: testWorld}}, 1)
	for i := 1; i <= 20; i++ {
		enqueue(t, n, &protocol.ClientHello{Client: id.ClientID(i), Pos: geom.Pt(50+float64(i)*0.1, 50)})
	}
	u := move(1, 1, geom.Pt(50.1, 50), geom.Pt(50.15, 50.05)) // same grid cell
	buf := make([]core.Envelope, 0, 64)
	// Warm the inbox, scratch and node buffers outside the measured region.
	for i := 0; i < 3; i++ {
		enqueue(t, n, u)
		buf, _ = n.Step(buf[:0], 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := n.Game.Enqueue(u); err != nil {
			t.Fatal(err)
		}
		out, f := n.Step(buf[:0], 0)
		if f != (Faults{}) {
			t.Fatalf("step faulted: %+v", f)
		}
		if len(out) == 0 {
			t.Fatal("no envelopes")
		}
		buf = out[:0]
	})
	if allocs != 0 {
		t.Errorf("node step allocates %.1f/op, budget is 0", allocs)
	}
}

// TestStepCountsRejectedUpdates: a Matrix server that cannot take an
// update (a spare, or one with no overlap table yet) contributes no
// envelopes for it and the rejection is counted — while the game server's
// own client deliveries still go out.
func TestStepCountsRejectedUpdates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bounds geom.Rect
		want   error
	}{
		{"inactive", geom.Rect{}, core.ErrInactive},
		{"no-table", testWorld, core.ErrNoTable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNode(t, 1, tc.bounds)
			at := geom.Pt(20, 20)
			enqueue(t, n,
				&protocol.ClientHello{Client: 7, Pos: at},
				&protocol.GameUpdate{Client: 7, Seq: 1, Kind: protocol.KindAction, Origin: at, Dest: at},
				&protocol.GameUpdate{Client: 7, Seq: 2, Kind: protocol.KindChat, Origin: at, Dest: at},
			)
			out, f := n.Step(nil, 0)
			if f.Game != nil {
				t.Fatalf("game server error: %v", f.Game)
			}
			if f.Core != 2 || !errors.Is(f.CoreErr, tc.want) {
				t.Fatalf("faults = %+v, want 2 rejections of %v", f, tc.want)
			}
			// Welcome plus the two echoes, nothing from the Matrix server.
			if len(out) != 3 {
				t.Fatalf("got %d envelopes, want 3: %+v", len(out), out)
			}
			for _, e := range out {
				if e.Dest != core.DestClient || e.Client != 7 {
					t.Errorf("rejected update leaked a Matrix envelope: %+v", e)
				}
			}
		})
	}
}

// TestReport: a spare reports nothing; an overloaded partition owner
// reports its load to the coordinator and asks for a split.
func TestReport(t *testing.T) {
	spare := newTestNode(t, 2, geom.Rect{})
	if out, err := spare.Report(nil); err != nil || len(out) != 0 {
		t.Fatalf("spare reported %+v (%v)", out, err)
	}

	n := newTestNode(t, 1, testWorld)
	for i := 1; i <= 400; i++ {
		enqueue(t, n, &protocol.ClientHello{Client: id.ClientID(i), Pos: geom.Pt(float64(i%100), float64(i/100))})
	}
	n.Step(nil, 0)
	out, err := n.Report(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Dest != core.DestCoordinator || out[1].Dest != core.DestCoordinator {
		t.Fatalf("report = %+v, want a load report and a split request to the coordinator", out)
	}
	if rep, ok := out[0].Msg.(*protocol.LoadReport); !ok || rep.Clients != 400 {
		t.Errorf("first envelope %+v, want a 400-client load report", out[0].Msg)
	}
	if _, ok := out[1].Msg.(*protocol.SplitRequest); !ok {
		t.Errorf("second envelope %+v, want a split request", out[1].Msg)
	}
}

// TestStepTracesCoreHandle: with a tracer attached, each game update's
// hand-off to the Matrix server is one core-handle step of its packet
// span, on the node's trace process.
func TestStepTracesCoreHandle(t *testing.T) {
	n := newTestNode(t, 1, testWorld)
	installTable(t, n, []space.Partition{{Owner: 1, Bounds: testWorld}}, 1)
	n.Tracer, n.TracePid = trace.New(64), 42
	at := geom.Pt(20, 20)
	enqueue(t, n,
		&protocol.ClientHello{Client: 7, Pos: at},
		&protocol.GameUpdate{Client: 7, Seq: 3, Kind: protocol.KindAction, Origin: at, Dest: at},
	)
	n.Step(nil, 0)
	evs := n.Tracer.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d trace events, want 1: %+v", len(evs), evs)
	}
	e := evs[0]
	if e.Name != "core-handle" || e.Pid != 42 || e.Ph != trace.PhaseAsyncInstant || e.ID != PacketSpanID(7, 3) {
		t.Errorf("trace event = %+v", e)
	}
}
