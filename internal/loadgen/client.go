package loadgen

import (
	"time"

	"repro/internal/hw"
	"repro/internal/rng"
	"repro/internal/services"
	"repro/internal/sim"
)

// Client-side event-dispatch kinds, packed into sim.EventArg.U64. The low
// evKindBits carry the kind; a mix-path send timer packs its class index
// above them, and a sharded response hand-off its departure instant. The
// generator's run implements sim.EventSink over these kinds.
const (
	evSendTimer uint64 = iota // Ptr: *thread — inter-arrival timer fired
	evArrive                  // Ptr: *services.Request — request reached the server
	evReceive                 // Ptr: *services.Request — response reached the client NIC
	evDrainPace               // Ptr: *thread — pacing core ran out of work
	evDrainRecv               // Ptr: *thread — receive core ran out of work
	evRespCross               // Ptr: *services.Request — sharded-run response hand-off to the
	//                           owning thread's shard; the departure instant (ns) rides above
	//                           the kind bits so the s2c jitter draw happens in the thread's
	//                           shard, in departure order (see sharded.go)
	evTimeout // Ptr: *services.Request — the attempt's response deadline passed (resilience.go)
	evRetry   // Ptr: *services.Request — a retry's backoff expired; re-send the attempt
	evHedge   // Ptr: *services.Request — the hedge delay expired; clone the attempt
)

// evKindBits is the width of the kind field in EventArg.U64.
const evKindBits = 8

// evKindMask extracts the kind from a packed scalar.
const evKindMask = (1 << evKindBits) - 1

// fillPayload draws the thread's next payload into the pooled request
// and returns the request's wire size. Key-value sources that implement
// KVPayloadSource store the body inline in req.KV (no interface boxing);
// everything else goes through req.Payload.
func (th *thread) fillPayload(req *services.Request) int {
	if th.kvSource != nil {
		kv, reqBytes := th.kvSource.NextKV()
		req.KV = kv
		req.HasKV = true
		return reqBytes
	}
	payload, reqBytes := th.payloads.Next()
	req.Payload = payload
	return reqBytes
}

// resetMachines resets the client machines, then the backend's, each
// from its own split of the run stream: the environment reset every run
// starts with.
func resetMachines(stream *rng.Stream, clients []*hw.Machine, backend services.Backend) {
	for _, m := range clients {
		m.ResetRun(stream.Split())
	}
	for _, m := range backend.Machines() {
		m.ResetRun(stream.Split())
	}
}

// fillMachineStats sets the run's machine-side results: client and
// server C-state wakes by state, and the clients' energy proxy.
func (res *RunResult) fillMachineStats(clients []*hw.Machine, backend services.Backend, duration time.Duration) {
	res.ClientWakes = make(map[string]int)
	res.ServerWakes = make(map[string]int)
	for _, m := range clients {
		for s, n := range m.IdleDistribution() {
			res.ClientWakes[s] += n
		}
		res.ClientEnergyProxy += m.EnergyProxy(duration)
	}
	for _, m := range backend.Machines() {
		for s, n := range m.IdleDistribution() {
			res.ServerWakes[s] += n
		}
	}
}

// clientLoopStart returns when the event loop on core can begin processing
// an event that became runnable at t, paying wake and dispatch costs.
func clientLoopStart(core *hw.Core, t sim.Time) sim.Time {
	if core.Idle() {
		fromDeep := core.CStateIndex() != 0 // not C0, the polling idle
		ready := core.Wake(t)
		if fromDeep {
			// Full scheduler context switch after a hardware sleep.
			return ready.Add(hw.CtxSwitchCost)
		}
		// idle=poll: the polling loop hands off cheaply.
		return ready.Add(pollDispatch)
	}
	if core.BusyUntil() > t {
		return core.BusyUntil() // loop busy: the event queues behind it
	}
	return t
}

// clientReceive is the receive-path bookkeeping of every response — the
// mechanism behind the paper's client-side measurement distortion.
// A response reaching the client NIC at now pays IRQ delivery and any
// uncore ramp before the event loop can see it (eligible), then the
// loop's wake/dispatch cost (start = when parsing begins), then the
// response parse itself (done = the in-app timestamp instant).
// wakeState is the index in hw.SkylakeCStates of the C-state the receive
// core was in when the response arrived (0, C0 = awake or polling).
func clientReceive(machine *hw.Machine, core *hw.Core, now sim.Time) (wakeState int, eligible, start, done sim.Time) {
	wakeState = core.CStateIndex()
	eligible = now.Add(hw.IRQDeliveryCost + machine.UncoreRXPenalty())
	start = clientLoopStart(core, eligible)
	done = core.Execute(start, recvWork)
	return wakeState, eligible, start, done
}
