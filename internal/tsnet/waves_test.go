package tsnet

import (
	"fmt"
	"reflect"
	"testing"

	"tsnoop/internal/obs"
	"tsnoop/internal/sim"
	"tsnoop/internal/stats"
	"tsnoop/internal/topology"
)

// hookRec is one ordered processing event seen through TestHook.
type hookRec struct {
	ep, src int
	seq     uint64
	gt, ot  uint64
}

// phaseRun is one run of the phase stress program on a fresh network.
type phaseRun struct {
	hooks    []hookRec
	handoffs []hookRec // (ep, src, seq) in handler order
	gts      []uint64
	events   uint64
}

// runPhaseStress injects a random program of broadcasts, most of them
// exactly on a 15 ns token phase, where they share kernel time with the
// token waves, with some injected from inside ordered handlers, and
// records what the endpoints observe. probed attaches a telemetry probe,
// which makes every send its own kernel event.
func runPhaseStress(topo *topology.Topology, probed bool, seed uint64) phaseRun {
	return runPhaseStressWith(topo, probed, seed, nil)
}

// runPhaseStressWith is runPhaseStress with setup applied to the network
// before it starts.
func runPhaseStressWith(topo *topology.Topology, probed bool, seed uint64, setup func(*Network)) phaseRun {
	k := sim.NewKernel()
	run := &stats.Run{}
	cfg := DefaultConfig()
	if probed {
		probe := obs.NewProbe()
		k.SetProbe(probe)
		cfg.Probe = probe
	}
	net := New(k, topo, cfg, &run.Traffic, run)
	var r phaseRun
	nodes := topo.Nodes()
	rng := sim.NewRand(seed)
	for ep := 0; ep < nodes; ep++ {
		ep := ep
		net.Register(ep, func(src int, seq uint64, _ any, _ sim.Time) {
			r.handoffs = append(r.handoffs, hookRec{ep: ep, src: src, seq: seq})
			if ep == src && seq%4 == 1 {
				net.Inject(ep, nil) // off-phase: Dovh after a tick
			}
		}, func(src int, seq uint64, _ any, slack int) bool {
			return src != ep && (seq+uint64(ep))%7 == 0 && slack == 0
		})
	}
	net.TestHook = func(ep, src int, seq uint64, gt, ot uint64) {
		r.hooks = append(r.hooks, hookRec{ep, src, seq, gt, ot})
	}
	if setup != nil {
		setup(net)
	}
	net.Start()
	phase := 15 * sim.Nanosecond
	at := sim.Time(0)
	for i := 0; i < 300; i++ {
		at += sim.Duration(rng.Intn(3)) * phase
		t := at
		if rng.Intn(10) == 0 {
			t += sim.Duration(1+rng.Intn(14)) * sim.Nanosecond
		}
		k.AtCall(t, injectEvent, net, nil, int64(rng.Intn(nodes)))
	}
	k.RunUntil(at + 3*sim.Microsecond)
	for ep := 0; ep < nodes; ep++ {
		r.gts = append(r.gts, net.GT(ep))
	}
	r.events = k.Executed()
	return r
}

// TestWavesMatchPerEventOnPhase is the network-level differential test
// of link waves: with injections forced onto the token phases (rare in
// the workloads, where transactions mostly travel between phases), a
// bare network must order and hand off exactly what a probe-attached
// one does, with the same guarantee times, in fewer kernel events.
func TestWavesMatchPerEventOnPhase(t *testing.T) {
	topos := map[string]*topology.Topology{
		"butterfly": topology.MustButterfly(4),
		"torus":     topology.MustTorus(4, 4),
	}
	for name, topo := range topos {
		for seed := uint64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				bare := runPhaseStress(topo, false, seed)
				oracle := runPhaseStress(topo, true, seed)
				if len(oracle.hooks) == 0 {
					t.Fatal("no transaction was ordered")
				}
				if !reflect.DeepEqual(bare.hooks, oracle.hooks) {
					t.Fatalf("ordered processing differs: %d vs %d events", len(bare.hooks), len(oracle.hooks))
				}
				if !reflect.DeepEqual(bare.handoffs, oracle.handoffs) {
					t.Fatalf("handoffs differ: %d vs %d", len(bare.handoffs), len(oracle.handoffs))
				}
				if !reflect.DeepEqual(bare.gts, oracle.gts) {
					t.Fatalf("guarantee times differ: %v vs %v", bare.gts, oracle.gts)
				}
				if bare.events >= oracle.events {
					t.Errorf("waves dispatched %d events, per-event %d", bare.events, oracle.events)
				}
			})
		}
	}
}

// reverseOpenTokens is a typed kernel event that reverses the token
// order of every pending token wave still open for sends: a0 is the
// Network, a1 a *int counting the waves it found the clock replaying.
func reverseOpenTokens(a0, a1 any, i0 int64) {
	n := a0.(*Network)
	for _, w := range n.open {
		if w == nil || !w.token || w.at <= n.k.Now() || len(w.tokens) < 2 {
			continue
		}
		if n.clock != nil && n.clock.replaying {
			*a1.(*int)++
		}
		for i, j := 0, len(w.tokens)-1; i < j; i, j = i+1, j-1 {
			w.tokens[i], w.tokens[j] = w.tokens[j], w.tokens[i]
		}
	}
}

// TestTokenClockLeavesReplayExactly pins the token clock's way out of a
// replay: a token wave that does not match the expected step must end
// the replay and run live, and the clock must pick the new cycle up
// again. Reordering pending token waves now and then (a legal change
// of the token system's course, applied alike to both networks) forces
// such waves; a network with the clock must then still match one
// without it in everything the endpoints observe.
func TestTokenClockLeavesReplayExactly(t *testing.T) {
	for name, topo := range map[string]*topology.Topology{
		"butterfly": topology.MustButterfly(4),
		"torus":     topology.MustTorus(4, 4),
	} {
		t.Run(name, func(t *testing.T) {
			hits := 0
			perturb := func(n *Network) {
				for i := 1; i <= 40; i++ {
					n.k.AtCall(sim.Time(i)*250*sim.Nanosecond+7*sim.Nanosecond, reverseOpenTokens, n, &hits, 0)
				}
			}
			withClock := runPhaseStressWith(topo, false, 3, perturb)
			replayHits := hits
			without := runPhaseStressWith(topo, false, 3, func(n *Network) {
				if n.clock == nil {
					t.Fatal("an uncontended bare network has no token clock")
				}
				n.clock = nil
				perturb(n)
			})
			if replayHits == 0 {
				t.Fatal("no perturbation landed while the clock was replaying")
			}
			if !reflect.DeepEqual(withClock.hooks, without.hooks) ||
				!reflect.DeepEqual(withClock.handoffs, without.handoffs) ||
				!reflect.DeepEqual(withClock.gts, without.gts) {
				t.Fatalf("token clock diverges from live token processing after %d perturbed replays", replayHits)
			}
		})
	}
}

// TestTokenClockCycle pins the token clock's recording on idle networks
// to the token system's measured structure: once replaying, every 15 ns
// phase ticks each endpoint exactly once — in the order 0..15 on the
// butterfly, and cycling through four distinct orders on the torus.
func TestTokenClockCycle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		topo   *topology.Topology
		orders int
	}{
		{"butterfly", topology.MustButterfly(4), 1},
		{"torus", topology.MustTorus(4, 4), 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			run := &stats.Run{}
			net := New(k, tc.topo, DefaultConfig(), &run.Traffic, run)
			for ep := 0; ep < tc.topo.Nodes(); ep++ {
				net.Register(ep, func(int, uint64, any, sim.Time) {}, nil)
			}
			net.Start()
			k.RunUntil(2 * sim.Microsecond)
			c := net.clock
			if c == nil || !c.replaying {
				t.Fatal("the idle network's token clock is not replaying")
			}
			orders := map[string]bool{}
			for _, st := range c.steps[c.first:] {
				ticks := c.ids[st.ticks.lo:st.ticks.hi]
				if len(ticks) == 0 {
					continue
				}
				seen := make([]bool, tc.topo.Nodes())
				for _, ep := range ticks {
					seen[ep] = true
				}
				for ep, ok := range seen {
					if !ok || len(ticks) != len(seen) {
						t.Fatalf("a phase ticks %v, want each endpoint once (endpoint %d)", ticks, ep)
					}
				}
				orders[fmt.Sprint(ticks)] = true
			}
			if len(orders) != tc.orders {
				t.Errorf("the cycle ticks in %d orders, want %d: %v", len(orders), tc.orders, orders)
			}
			if tc.orders == 1 && !orders[fmt.Sprint([]int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})] {
				t.Errorf("butterfly tick order %v, want 0..15", orders)
			}
		})
	}
}

// handoffRec is one handler handoff: endpoint, transaction, and time.
type handoffRec struct {
	ep, src int
	seq     uint64
	at      sim.Time
}

// runStopMidWave keeps a network busy with broadcasts and stops its
// RunWhile loop every 7 handoffs, injecting the next broadcast at each
// stop, so that most stops fall inside a run of handoffs due at one
// time. It returns the handoffs, the time of each stop, and the kernel's
// dispatch count. probed attaches a telemetry probe, which makes every
// handoff its own kernel event.
func runStopMidWave(topo *topology.Topology, probed bool) (log []handoffRec, stops []sim.Time, events uint64) {
	k := sim.NewKernel()
	run := &stats.Run{}
	cfg := DefaultConfig()
	if probed {
		probe := obs.NewProbe()
		k.SetProbe(probe)
		cfg.Probe = probe
	}
	net := New(k, topo, cfg, &run.Traffic, run)
	for ep := 0; ep < topo.Nodes(); ep++ {
		ep := ep
		net.Register(ep, func(src int, seq uint64, _ any, _ sim.Time) {
			log = append(log, handoffRec{ep: ep, src: src, seq: seq, at: k.Now()})
		}, nil)
	}
	net.Start()
	k.RunUntil(100 * sim.Nanosecond)
	for src := 0; len(log) < 600; src++ {
		net.Inject(src%topo.Nodes(), nil)
		target := len(log) + 7
		k.RunWhile(func() bool { return len(log) < target })
		stops = append(stops, k.Now())
	}
	k.RunUntil(k.Now() + sim.Microsecond)
	return log, stops, k.Executed()
}

// TestHandoffWaveStopsExactly pins the exact stop inside a handoff
// wave: when a handler ends RunWhile between two handoffs of one wave,
// the rest must stay pending and run first, in the same order and at
// the same time as the per-event path's separate handoff events — also
// with a broadcast injected at the stop.
func TestHandoffWaveStopsExactly(t *testing.T) {
	for name, topo := range map[string]*topology.Topology{
		"butterfly": topology.MustButterfly(4),
		"torus":     topology.MustTorus(4, 4),
	} {
		t.Run(name, func(t *testing.T) {
			log, stops, events := runStopMidWave(topo, false)
			oLog, oStops, oEvents := runStopMidWave(topo, true)
			if !reflect.DeepEqual(log, oLog) {
				t.Fatalf("handoffs differ from the per-event path (%d vs %d)", len(log), len(oLog))
			}
			if !reflect.DeepEqual(stops, oStops) {
				t.Fatalf("stop times differ from the per-event path: %v vs %v", stops, oStops)
			}
			mid, next := 0, 0
			for _, at := range stops {
				next += 7
				if next < len(log) && log[next].at == at && log[next-1].at == at {
					mid++
				}
			}
			if mid == 0 {
				t.Fatal("no stop fell between two handoffs due at one time")
			}
			if events >= oEvents {
				t.Errorf("handoff waves dispatched %d events, per-event %d", events, oEvents)
			}
		})
	}
}
