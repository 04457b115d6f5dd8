package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"sync"
	"time"

	"sdx/internal/core"
	"sdx/internal/dataplane"
	"sdx/internal/openflow"
)

// ofObserver wraps the controller's side of the OpenFlow connection, the
// net.Conn handed to SwitchServer.Serve. It sees every message the
// controller writes (one Write per message) and parses the byte stream the
// controller reads, so it can time BARRIER_REPLYs by XID without touching
// the program.
type ofObserver struct {
	net.Conn

	mu          sync.Mutex
	lastBarrier uint32
	flowMods    uint64
	replies     map[uint32]time.Time
	waiters     map[uint32][]func(time.Time)

	// Read-side stream state; only the Serve goroutine reads.
	hdr  []byte
	skip int
}

func newObserver(c net.Conn) *ofObserver {
	return &ofObserver{
		Conn:    c,
		replies: make(map[uint32]time.Time),
		waiters: make(map[uint32][]func(time.Time)),
	}
}

func (o *ofObserver) Write(b []byte) (int, error) {
	if len(b) >= 8 {
		switch openflow.MsgType(b[1]) {
		case openflow.TypeBarrierRequest:
			// Recorded before the write, so the reply cannot overtake it.
			o.mu.Lock()
			o.lastBarrier = binary.BigEndian.Uint32(b[4:8])
			o.mu.Unlock()
		case openflow.TypeFlowMod:
			o.mu.Lock()
			o.flowMods++
			o.mu.Unlock()
		}
	}
	return o.Conn.Write(b)
}

func (o *ofObserver) Read(b []byte) (int, error) {
	n, err := o.Conn.Read(b)
	if n > 0 {
		o.scan(b[:n], time.Now())
	}
	return n, err
}

// scan walks the OpenFlow framing of bytes read from the switch.
func (o *ofObserver) scan(p []byte, now time.Time) {
	for len(p) > 0 {
		if o.skip > 0 {
			k := min(o.skip, len(p))
			o.skip -= k
			p = p[k:]
			continue
		}
		k := min(8-len(o.hdr), len(p))
		o.hdr = append(o.hdr, p[:k]...)
		p = p[k:]
		if len(o.hdr) < 8 {
			return
		}
		length := int(binary.BigEndian.Uint16(o.hdr[2:4]))
		if openflow.MsgType(o.hdr[1]) == openflow.TypeBarrierReply {
			o.reply(binary.BigEndian.Uint32(o.hdr[4:8]), now)
		}
		o.skip = max(length-8, 0)
		o.hdr = o.hdr[:0]
	}
}

func (o *ofObserver) reply(xid uint32, at time.Time) {
	o.mu.Lock()
	fns := o.waiters[xid]
	o.replies[xid] = at
	delete(o.waiters, xid)
	o.mu.Unlock()
	for _, fn := range fns {
		fn(at)
	}
}

// lastBarrierXID returns the XID of the newest BARRIER_REQUEST written.
func (o *ofObserver) lastBarrierXID() uint32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.lastBarrier
}

// flowModsSent returns how many FLOW_MODs the controller has written.
func (o *ofObserver) flowModsSent() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.flowMods
}

// notify calls fn with the arrival time of xid's BARRIER_REPLY: at once if
// it has arrived, else from the reading goroutine when it does.
func (o *ofObserver) notify(xid uint32, fn func(time.Time)) {
	o.mu.Lock()
	if at, ok := o.replies[xid]; ok {
		o.mu.Unlock()
		fn(at)
		return
	}
	o.waiters[xid] = append(o.waiters[xid], fn)
	o.mu.Unlock()
}

// wait blocks until xid's BARRIER_REPLY arrives or the timeout passes.
func (o *ofObserver) wait(xid uint32, timeout time.Duration) (time.Time, error) {
	ch := make(chan time.Time, 1)
	o.notify(xid, func(at time.Time) { ch <- at })
	select {
	case at := <-ch:
		return at, nil
	case <-time.After(timeout):
		return time.Time{}, fmt.Errorf("no BARRIER_REPLY for xid %d within %v", xid, timeout)
	}
}

// egress records what leaves the switch's ports. Only the goroutine that
// injects frames makes the switch emit (the benchmark sends no PACKET_OUTs),
// so it needs no lock.
type egress struct {
	seq []emission // emissions in order, while recording
	rec bool
}

// emission is one frame leaving the switch: the port, and the frame's IPv4
// addresses and L4 ports, which no rule here rewrites, so they tie the
// frame to the one that went in.
type emission struct {
	port uint16
	key  [12]byte
}

func (e *egress) sink(port uint16) func([]byte) {
	return func(frame []byte) {
		if e.rec {
			var em emission
			em.port = port
			if len(frame) >= 38 {
				copy(em.key[:], frame[26:38])
			}
			e.seq = append(e.seq, em)
		}
	}
}

// start begins recording emissions in order, discarding earlier ones.
func (e *egress) start() { e.seq, e.rec = e.seq[:0], true }

// fabric is one software switch attached to the controller over loopback
// TCP, as sdx-switch attaches to sdx-controller: SwitchServer.Serve on the
// controller's end of the connection, Switch.ServeController on the other.
type fabric struct {
	switches *core.SwitchServer
	sw       *dataplane.Switch
	of       *ofObserver
	out      *egress
	conns    []net.Conn
	wg       sync.WaitGroup
}

// connectFabric starts a switch with every member port attached and waits
// until the controller has registered it.
func connectFabric(ctrl *core.Controller, ports []uint16) (*fabric, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	f := &fabric{
		switches: core.NewSwitchServer(nil),
		sw:       dataplane.NewSwitch(1),
		out:      &egress{},
	}
	f.switches.HandlePacketIn = ctrl.HandlePacketIn
	for _, p := range ports {
		f.sw.AttachPort(p, f.out.sink(p))
	}
	swEnd, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	ctrlEnd, err := ln.Accept()
	if err != nil {
		swEnd.Close()
		return nil, err
	}
	f.of = newObserver(ctrlEnd)
	f.conns = []net.Conn{swEnd, ctrlEnd}
	f.wg.Add(2)
	go func() { defer f.wg.Done(); f.switches.Serve(f.of) }()
	go func() { defer f.wg.Done(); f.sw.ServeController(swEnd) }()
	for deadline := time.Now().Add(10 * time.Second); f.switches.Switches() == 0; {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("switch did not register with the controller")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

func (f *fabric) close() {
	for _, c := range f.conns {
		c.Close()
	}
	f.wg.Wait()
}

// commitStats times one SetBase: the call itself, and the wait from its
// return to the BARRIER_REPLY that fences it.
type commitStats struct {
	setBase, install time.Duration
	flowMods         uint64
	fenced           time.Time
}

// commit pushes a compilation to the switch with SetBase and waits for the
// barrier that fences it.
func (f *fabric) commit(res *core.CompileResult) (commitStats, error) {
	mods := f.of.flowModsSent()
	t0 := time.Now()
	if err := f.switches.SetBase(res); err != nil {
		return commitStats{}, err
	}
	t1 := time.Now()
	at, err := f.of.wait(f.of.lastBarrierXID(), 60*time.Second)
	if err != nil {
		return commitStats{}, fmt.Errorf("SetBase: %w", err)
	}
	return commitStats{setBase: t1.Sub(t0), install: at.Sub(t1), flowMods: f.of.flowModsSent() - mods, fenced: at}, nil
}

// pushFast pushes a fast-path result with PushFastAll and waits for its
// barrier.
func (f *fabric) pushFast(res *core.FastPathResult) error {
	if err := f.switches.PushFastAll(res); err != nil {
		return err
	}
	_, err := f.of.wait(f.of.lastBarrierXID(), 60*time.Second)
	return err
}

// tableMatches reports whether the switch's table holds exactly the rules of
// res, in priority order, with the FLOW_MOD actions each rule lowers to —
// the property SetBase's make-before-break diff must leave behind. It
// returns a description of the first difference.
func tableMatches(entries []dataplane.FlowEntry, res *core.CompileResult) (bool, string) {
	if len(entries) != len(res.Rules) {
		return false, fmt.Sprintf("%d entries on the switch, %d rules compiled", len(entries), len(res.Rules))
	}
	for i, r := range res.Rules {
		fm, err := openflow.FlowModFromRule(r, 1)
		if err != nil {
			return false, err.Error()
		}
		e := entries[i]
		if e.Match != fm.Match.ToPolicy() || !sameActions(e.Actions, fm.Actions) {
			return false, fmt.Sprintf("entry %d is %v, compiled rule is %v", i, e.String(), r)
		}
		if i > 0 && e.Priority >= entries[i-1].Priority {
			return false, fmt.Sprintf("entry %d priority %d not below %d", i, e.Priority, entries[i-1].Priority)
		}
	}
	return true, ""
}

func sameActions(a, b []openflow.Action) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
