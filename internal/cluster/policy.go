package cluster

import (
	"fmt"
	"strings"

	"aimt/internal/arch"
)

// Request is the dispatcher's view of one stream entry at routing
// time: everything a front-door router can know about a request before
// any chip has executed a cycle of it.
type Request struct {
	// Index is the request's position in the front-door stream.
	Index int

	// Class is the request's index into the stream's class list.
	Class int

	// Arrival is the request's arrival cycle.
	Arrival arch.Cycles

	// Deadline is the request's absolute deadline.
	Deadline arch.Cycles

	// Service is the class's isolated service estimate — the unit of
	// outstanding work the dispatcher accounts per routed request.
	Service arch.Cycles

	// Priority is the request class's scheduling priority (higher is
	// more urgent; see serve.Class.Priority). Routing policies ignore
	// it; the control plane's admission check sheds only the lowest
	// band.
	Priority int
}

// View is the dispatcher state a routing policy may consult: per-chip
// outstanding-work estimates maintained from the service estimates of
// previously routed requests. A real front door has exactly this
// information — it sees arrivals and its own routing decisions, never
// the chips' internal schedules.
type View struct {
	chips   int
	classes int
	freeAt  []arch.Cycles // estimated cycle each chip drains its queue
	counts  []int         // requests routed to each chip so far

	// pred, when the control plane enables prediction, refines ETA
	// queries by bounded forward simulation of the chip's recent
	// workload on the real machine model. Nil keeps every estimate
	// static, bit-identical to the plain dispatcher.
	pred *predictor
}

// Chips returns the cluster size.
func (v *View) Chips() int { return v.chips }

// Classes returns the number of request classes in the stream.
func (v *View) Classes() int { return v.classes }

// Backlog returns chip's estimated outstanding work at cycle now: the
// service estimates of its routed, not-yet-drained requests.
func (v *View) Backlog(chip int, now arch.Cycles) arch.Cycles {
	if b := v.freeAt[chip] - now; b > 0 {
		return b
	}
	return 0
}

// ETA returns the estimated completion cycle of r if routed to chip:
// the chip drains its backlog (or the request arrives, whichever is
// later), then serves the request.
func (v *View) ETA(chip int, r Request) arch.Cycles {
	start := v.freeAt[chip]
	if r.Arrival > start {
		start = r.Arrival
	}
	return start + r.Service
}

// PredictETA returns the best completion estimate available for
// routing r to chip: the static drain-then-serve arithmetic when the
// dispatcher has no predictor, or the bounded forward simulation of
// the chip's recent workload plus r when the control plane enabled
// prediction (Control.Predictive, or the "predictive" policy). The
// deadline policy and admission control query this seam, so turning
// prediction on upgrades both without changing their logic.
func (v *View) PredictETA(chip int, r Request) arch.Cycles {
	static := v.ETA(chip, r)
	if v.pred == nil {
		return static
	}
	return v.pred.eta(chip, r, static)
}

// Routed returns how many requests chip has received so far.
func (v *View) Routed(chip int) int { return v.counts[chip] }

// route records the dispatch of r to chip.
func (v *View) route(chip int, r Request) {
	start := v.freeAt[chip]
	if r.Arrival > start {
		start = r.Arrival
	}
	v.freeAt[chip] = start + r.Service
	v.counts[chip]++
	if v.pred != nil {
		v.pred.record(chip, r.Index)
	}
}

// Policy routes each request of a stream to one chip. Policies are
// consulted in arrival order and must be deterministic functions of
// the view and request; they may carry state across picks (e.g. a
// round-robin cursor), so one Policy value serves one dispatch pass.
type Policy interface {
	// Name labels the policy in results and flags.
	Name() string

	// Pick returns the chip for r, in [0, v.Chips()).
	Pick(v *View, r Request) int
}

// RoundRobin cycles through the chips in request order, ignoring load.
type RoundRobin struct{ next int }

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (p *RoundRobin) Pick(v *View, _ Request) int {
	c := p.next % v.Chips()
	p.next++
	return c
}

// LeastWork routes to the chip with the smallest estimated backlog at
// the request's arrival; ties resolve to the lowest chip index.
type LeastWork struct{}

// Name implements Policy.
func (LeastWork) Name() string { return "least-work" }

// Pick implements Policy.
func (LeastWork) Pick(v *View, r Request) int {
	best := 0
	bestB := v.Backlog(0, r.Arrival)
	for c := 1; c < v.Chips(); c++ {
		if b := v.Backlog(c, r.Arrival); b < bestB {
			best, bestB = c, b
		}
	}
	return best
}

// ClassAffinity pins each request class to a chip subset — the CNN /
// RNN partitioning that keeps one class's weight working set hot on
// its chips. Class k owns the chips whose index is congruent to k
// modulo the class count (so with 4 chips and 2 classes, chips 0 and 2
// serve class 0). When the cluster is smaller than the class count the
// class folds onto chip k mod chips. Within its subset a request is
// routed by least backlog.
type ClassAffinity struct{}

// Name implements Policy.
func (ClassAffinity) Name() string { return "class-affinity" }

// Pick implements Policy.
func (ClassAffinity) Pick(v *View, r Request) int {
	classes := v.Classes()
	if classes <= 0 || v.Chips() <= classes {
		// Degenerate partitions: one chip per class at most.
		if classes <= 0 {
			return 0
		}
		return r.Class % v.Chips()
	}
	best, bestB := -1, arch.Cycles(0)
	for c := r.Class; c < v.Chips(); c += classes {
		if b := v.Backlog(c, r.Arrival); best < 0 || b < bestB {
			best, bestB = c, b
		}
	}
	return best
}

// Deadline routes to the chip with the earliest feasible completion:
// the one whose backlog-drain-then-serve estimate finishes soonest,
// which is also the chip most likely to meet the request's deadline.
// Ties resolve to the lowest chip index.
type Deadline struct{}

// Name implements Policy.
func (Deadline) Name() string { return "deadline" }

// Pick implements Policy. It routes through the PredictETA seam, so
// with the control plane's predictor attached the "earliest feasible
// completion" is a forward-simulated one; without it the behaviour is
// the original static estimate, bit for bit.
func (Deadline) Pick(v *View, r Request) int {
	best := 0
	bestETA := v.PredictETA(0, r)
	for c := 1; c < v.Chips(); c++ {
		if eta := v.PredictETA(c, r); eta < bestETA {
			best, bestETA = c, eta
		}
	}
	return best
}

// Predictive is the deadline policy with the forward-simulation
// predictor always on: selecting it (cluster.ByName("predictive") or
// aimt-serve -route predictive) makes Serve attach the predictor even
// when the rest of the control plane is off. Each routing decision
// simulates the candidate chips' recent workload plus the request on
// the real machine model and picks the chip whose simulation finishes
// the request soonest.
type Predictive struct{}

// Name implements Policy.
func (Predictive) Name() string { return "predictive" }

// Pick implements Policy.
func (Predictive) Pick(v *View, r Request) int {
	best := 0
	bestETA := v.PredictETA(0, r)
	for c := 1; c < v.Chips(); c++ {
		if eta := v.PredictETA(c, r); eta < bestETA {
			best, bestETA = c, eta
		}
	}
	return best
}

// Spec names a routing policy and builds a fresh instance per dispatch
// pass (policies may carry cursor state).
type Spec struct {
	// Name labels the policy.
	Name string
	// New constructs a fresh policy value.
	New func() Policy
}

// policies is the one name→factory table for routing. Policies lists
// the comparison set and ByName resolves every entry. The predictive
// policy is opt-in: each of its routing decisions costs chip-count
// forward simulations, so it is compared only when asked for.
var policies = []struct {
	Spec
	optIn bool
}{
	{Spec: Spec{Name: "round-robin", New: func() Policy { return &RoundRobin{} }}},
	{Spec: Spec{Name: "least-work", New: func() Policy { return LeastWork{} }}},
	{Spec: Spec{Name: "class-affinity", New: func() Policy { return ClassAffinity{} }}},
	{Spec: Spec{Name: "deadline", New: func() Policy { return Deadline{} }}},
	{Spec: Spec{Name: "predictive", New: func() Policy { return Predictive{} }}, optIn: true},
}

// Policies returns the routing policies compared by default, in
// comparison order.
func Policies() []Spec {
	var out []Spec
	for _, p := range policies {
		if !p.optIn {
			out = append(out, p.Spec)
		}
	}
	return out
}

// Names returns every routing policy name, opt-in ones included.
func Names() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.Name
	}
	return out
}

// ByName resolves any routing policy spec from its name, ignoring case.
func ByName(name string) (Spec, error) {
	name = strings.TrimSpace(name)
	for _, p := range policies {
		if strings.EqualFold(p.Name, name) {
			return p.Spec, nil
		}
	}
	return Spec{}, fmt.Errorf("cluster: unknown routing policy %q (have %s)", name, strings.Join(Names(), ", "))
}
