package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"strconv"
	"strings"

	"sdx/internal/bgp"
	"sdx/internal/core"
	"sdx/internal/netutil"
	"sdx/internal/packet"
	"sdx/internal/routeserver"
	"sdx/internal/telemetry"
	"sdx/internal/workload"
)

// exchange is a generated IXP and the controller it is loaded into, plus
// the benchmark's own record of every route it has handed the route server:
// the reference the checks compare the program's outputs against.
type exchange struct {
	ex   *workload.Exchange
	ctrl *core.Controller
	rs   *routeserver.Server
	reg  *telemetry.Registry

	ports   []uint16 // every member port
	ownerOf []int    // member index by port number (-1: none)
	// paths[prefix][member] is the AS-path length of member's current
	// route for prefix; a missing member has no route.
	paths map[netip.Prefix]map[int]int
}

// exchangeSeed generates every workload's exchange. The exchange is held
// fixed and --seed varies what happens to it (which UPDATEs, which bursts,
// which clients): generated exchanges differ by a quarter in rule count and
// by more in compile and install cost, which no run-to-run bound could
// absorb (README.md).
const exchangeSeed = 1

// newExchange generates an exchange of the §6.1 kind, registers its members
// with a fresh controller and installs the §6.1 policy mix. Routes are
// loaded separately (loadRoutes).
func newExchange(participants, prefixes int) (*exchange, error) {
	rng := rand.New(rand.NewSource(exchangeSeed))
	ex := workload.GenerateExchange(rng, participants, prefixes)
	reg := telemetry.NewRegistry()
	opts := core.DefaultOptions()
	opts.Telemetry = reg
	opts.Tracer = telemetry.NewTracer(0)
	rs := routeserver.New(nil)
	x := &exchange{
		ex:    ex,
		ctrl:  core.NewController(rs, opts),
		rs:    rs,
		reg:   reg,
		paths: make(map[netip.Prefix]map[int]int, prefixes),
	}
	for mi, m := range ex.Members {
		if err := x.ctrl.AddParticipant(core.Participant{ID: m.ID, AS: m.AS, Ports: m.Ports}); err != nil {
			return nil, err
		}
		for _, p := range m.Ports {
			x.ports = append(x.ports, p.Number)
			for len(x.ownerOf) <= int(p.Number) {
				x.ownerOf = append(x.ownerOf, -1)
			}
			x.ownerOf[p.Number] = mi
		}
	}
	for _, p := range ex.Prefixes {
		x.paths[p] = make(map[int]int, len(ex.AnnouncersOf[p]))
	}
	if _, err := workload.InstallPolicies(rng, ex, x.ctrl, workload.DefaultPolicyMix()); err != nil {
		return nil, err
	}
	return x, nil
}

// loadRoutes hands the route server, through its API, every generated route.
// Each route's AS path is its rank among the prefix's announcers plus extra
// hops, plus one, so the primary announcer is strictly preferred and no two
// routes for a prefix tie.
func (x *exchange) loadRoutes(extra int) error {
	for _, p := range x.ex.Prefixes {
		for rank, mi := range x.ex.AnnouncersOf[p] {
			if err := x.rs.Load(x.ex.Members[mi].ID, x.ex.RouteFor(mi, p, rank+extra)); err != nil {
				return err
			}
			x.paths[p][mi] = rank + extra + 1
		}
	}
	return nil
}

// hasOutbound reports whether member mi has an outbound policy.
func (x *exchange) hasOutbound(mi int) bool {
	p, _ := x.ctrl.Participant(x.ex.Members[mi].ID)
	return p.Outbound != nil
}

// hasPolicy reports whether member mi has any policy.
func (x *exchange) hasPolicy(mi int) bool {
	p, _ := x.ctrl.Participant(x.ex.Members[mi].ID)
	return p.Outbound != nil || p.Inbound != nil
}

// bestFor is the reference decision: the member with the shortest AS path
// for prefix other than receiver, or -1. Paths never tie by construction;
// should they, the lower member index wins, and the check that uses the
// answer reports a mismatch rather than guessing the program's tie-break.
func (x *exchange) bestFor(receiver int, prefix netip.Prefix) int {
	best, bestLen := -1, 0
	for mi, n := range x.paths[prefix] {
		if mi == receiver {
			continue
		}
		if best < 0 || n < bestLen || (n == bestLen && mi < best) {
			best, bestLen = mi, n
		}
	}
	return best
}

// announces reports whether member mi currently has a route for prefix.
func (x *exchange) announces(mi int, prefix netip.Prefix) bool {
	_, ok := x.paths[prefix][mi]
	return ok
}

// counter reads one counter from the controller's telemetry registry.
func (x *exchange) counter(name string) float64 {
	var buf bytes.Buffer
	if err := x.reg.WritePrometheus(&buf); err != nil {
		return 0
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			v, _ := strconv.ParseFloat(f[1], 64)
			return v
		}
	}
	return 0
}

// probeFrame builds a 64-byte UDP frame from member mi's first port to the
// given MAC, addressed into prefix.
func (x *exchange) probeFrame(mi int, dstMAC netutil.MAC, prefix netip.Prefix, dstPort uint16) []byte {
	m := x.ex.Members[mi]
	dst := prefix.Addr().As4()
	dst[3] = 7
	src := netip.AddrFrom4([4]byte{192, 0, 2, byte(mi)})
	return packet.NewUDP(m.Ports[0].MAC, dstMAC, src, netip.AddrFrom4(dst), 40000, dstPort, make([]byte, 22)).Serialize()
}

// vmacFor resolves the next hop the route server advertises to receiver
// for prefix through the controller's ARP responder, as the receiver's
// border router would.
func (x *exchange) vmacFor(receiver int, prefix netip.Prefix) (netutil.MAC, error) {
	best, ok := x.rs.BestFor(x.ex.Members[receiver].ID, prefix)
	if !ok {
		return netutil.MAC{}, fmt.Errorf("no route for %v at member %d", prefix, receiver)
	}
	vnh := x.ctrl.NextHopFor(x.ex.Members[receiver].ID, prefix, best)
	mac, ok := x.ctrl.ResolveARP(vnh)
	if !ok {
		return netutil.MAC{}, fmt.Errorf("next hop %v for %v does not resolve", vnh, prefix)
	}
	return mac, nil
}

// probe injects one frame and returns the ports it left on (none when it
// was dropped or punted). A frame a policy sends to two ports leaves twice.
func (f *fabric) probe(inPort uint16, frame []byte) ([]uint16, error) {
	f.out.start()
	err := f.sw.Inject(inPort, frame)
	f.out.rec = false
	var ports []uint16
	for _, em := range f.out.seq {
		ports = append(ports, em.port)
	}
	return ports, err
}

// firstAS returns the first AS of a path, the announcer at an exchange.
func firstAS(a bgp.PathAttrs) uint32 {
	if asns := a.FlatASPath(); len(asns) > 0 {
		return asns[0]
	}
	return 0
}
