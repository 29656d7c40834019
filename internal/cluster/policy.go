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

	// pred, attached under the predictive policy, refines ETA queries
	// by bounded forward simulation of the chip's recent workload on
	// the real machine model. Nil keeps every estimate static.
	pred *predictor
}

// backlog returns chip's estimated outstanding work at cycle now: the
// service estimates of its routed, not-yet-drained requests.
func (v *View) backlog(chip int, now arch.Cycles) arch.Cycles {
	if b := v.freeAt[chip] - now; b > 0 {
		return b
	}
	return 0
}

// eta returns the estimated completion cycle of r if routed to chip:
// the chip drains its backlog (or the request arrives, whichever is
// later), then serves the request.
func (v *View) eta(chip int, r Request) arch.Cycles {
	start := v.freeAt[chip]
	if r.Arrival > start {
		start = r.Arrival
	}
	return start + r.Service
}

// predictETA returns the best completion estimate available for
// routing r to chip: the static drain-then-serve arithmetic when the
// dispatcher has no predictor, or the bounded forward simulation of
// the chip's recent workload plus r under the predictive policy. The
// predictive policy and admission control query this seam, so turning
// prediction on upgrades both without changing their logic.
func (v *View) predictETA(chip int, r Request) arch.Cycles {
	static := v.eta(chip, r)
	if v.pred == nil {
		return static
	}
	return v.pred.eta(chip, r, static)
}

// route records the dispatch of r to chip.
func (v *View) route(chip int, r Request) {
	start := v.freeAt[chip]
	if r.Arrival > start {
		start = r.Arrival
	}
	v.freeAt[chip] = start + r.Service
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

	// Pick returns the chip for r, one of the view's active chips.
	Pick(v *View, r Request) int
}

// roundRobin cycles through the chips in request order, ignoring load.
type roundRobin struct{ next int }

// Name implements Policy.
func (p *roundRobin) Name() string { return "round-robin" }

// Pick implements Policy.
func (p *roundRobin) Pick(v *View, _ Request) int {
	c := p.next % v.chips
	p.next++
	return c
}

// leastWork routes to the chip with the smallest estimated backlog at
// the request's arrival; ties resolve to the lowest chip index.
type leastWork struct{}

// Name implements Policy.
func (leastWork) Name() string { return "least-work" }

// Pick implements Policy.
func (leastWork) Pick(v *View, r Request) int {
	best := 0
	bestB := v.backlog(0, r.Arrival)
	for c := 1; c < v.chips; c++ {
		if b := v.backlog(c, r.Arrival); b < bestB {
			best, bestB = c, b
		}
	}
	return best
}

// classAffinity pins each request class to a chip subset — the CNN /
// RNN partitioning that keeps one class's weight working set hot on
// its chips. Class k owns the chips whose index is congruent to k
// modulo the class count (so with 4 chips and 2 classes, chips 0 and 2
// serve class 0). When the cluster is smaller than the class count the
// class folds onto chip k mod chips. Within its subset a request is
// routed by least backlog.
type classAffinity struct{}

// Name implements Policy.
func (classAffinity) Name() string { return "class-affinity" }

// Pick implements Policy.
func (classAffinity) Pick(v *View, r Request) int {
	classes := v.classes
	if classes <= 0 || v.chips <= classes {
		// Degenerate partitions: one chip per class at most.
		if classes <= 0 {
			return 0
		}
		return r.Class % v.chips
	}
	best, bestB := -1, arch.Cycles(0)
	for c := r.Class; c < v.chips; c += classes {
		if b := v.backlog(c, r.Arrival); best < 0 || b < bestB {
			best, bestB = c, b
		}
	}
	return best
}

// Deadline is least-work under the name the deadline policy had: it
// routed to the chip whose drain-then-serve estimate,
// max(freeAt, arrival) + service, finishes soonest. A request's
// service estimate is the same on every chip, so that is the chip
// with the least backlog at arrival, with the same lowest-index
// tie-break. The routing table resolves "deadline" as an alias of
// "least-work".
type Deadline = leastWork

// predictive routes to the chip whose forward simulation finishes the
// request soonest: selecting it (cluster.ByName("predictive") or
// aimt-serve -route predictive) is what makes Serve build the
// predictor, with or without the rest of the control plane. Each
// routing decision then simulates the candidate chips' recent workload
// plus the request on the real machine model, and admission control
// sheds on the simulated completion instead of the static one.
//
// The trade, measured over 2/4/8 chips, per-chip loads 0.5–3, three
// mixes and three seeds (EXPERIMENTS.md, "Predictive routing"): with
// admission on and the cluster far past saturation (per-chip load 3,
// CNN/RNN mix) it raises goodput over least-work by 6.4–7.4 points at
// 2 chips and about 1 point at 4 and 8. At loads 0.9 and 1.5 with
// admission on it loses in every mix — up to 6.8 points on CNN/RNN;
// without admission it stays within the seed spread. Each routed
// request costs 46–261 µs of host time, against least-work's
// 0.02–0.08 µs.
type predictive struct{}

// Name implements Policy.
func (predictive) Name() string { return "predictive" }

// Pick implements Policy: the chip with the earliest predicted
// completion, ties to the lowest index. Without the predictor attached
// (Dispatch) the prediction is the static drain-then-serve estimate.
func (predictive) Pick(v *View, r Request) int {
	best := 0
	bestETA := v.predictETA(0, r)
	for c := 1; c < v.chips; c++ {
		if eta := v.predictETA(c, r); eta < bestETA {
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
	// Aliases are further spellings ByName accepts.
	Aliases []string
	// New constructs a fresh policy value.
	New func() Policy
}

// policies is the one name→factory table for routing, one entry per
// routing behaviour. Policies lists the comparison set and ByName
// resolves every entry by name or alias. The predictive policy is
// opt-in: each of its routing decisions costs chip-count forward
// simulations, so it is compared only when asked for.
var policies = []struct {
	Spec
	optIn bool
}{
	{Spec: Spec{Name: "round-robin", New: func() Policy { return &roundRobin{} }}},
	{Spec: Spec{Name: "least-work", Aliases: []string{"deadline"}, New: func() Policy { return leastWork{} }}},
	{Spec: Spec{Name: "class-affinity", New: func() Policy { return classAffinity{} }}},
	{Spec: Spec{Name: "predictive", New: func() Policy { return predictive{} }}, optIn: true},
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

// ByName resolves any routing policy spec from its name or one of its
// aliases, ignoring case.
func ByName(name string) (Spec, error) {
	name = strings.TrimSpace(name)
	for _, p := range policies {
		if strings.EqualFold(p.Name, name) {
			return p.Spec, nil
		}
		for _, a := range p.Aliases {
			if strings.EqualFold(a, name) {
				return p.Spec, nil
			}
		}
	}
	return Spec{}, fmt.Errorf("cluster: unknown routing policy %q (have %s)", name, strings.Join(Names(), ", "))
}
