// Package faultpoint provides deterministic, seeded fault injection
// for proxykit's transports and clearing paths.
//
// The paper's accounting protocol is designed for unreliable delivery:
// the accept-once restriction (§4, §7.7) makes duplicate check
// deposits harmless, and cascaded verification (§3.4) is offline so a
// request can be re-presented without contacting the grantor. An
// Injector makes that robustness testable: it sits at a transport
// boundary and — according to per-method rules and a seeded PRNG —
// drops messages, delays them, duplicates them, fails them with a
// remote error, or partitions the endpoint entirely.
//
// The same injector type plugs into the in-memory transport.Network,
// the TCP transport (client and server side), and the inter-bank
// clearing hop in internal/accounting. Daemons accept a rule spec on
// the command line via -fault-spec (see Parse).
package faultpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Action is one injected fault.
type Action uint8

// Injected fault kinds. A drop is split into request and response
// variants because they differ observably: a dropped request never
// reaches the handler, while a dropped response means the handler ran
// and only the acknowledgment was lost — the case that forces
// exactly-once machinery (accept-once) to earn its keep under retry.
const (
	ActNone Action = iota
	ActDropRequest
	ActDropResponse
	ActError
	ActDuplicate
	ActPartition
)

// String implements fmt.Stringer; the values appear as metric labels.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActDropRequest:
		return "drop-request"
	case ActDropResponse:
		return "drop-response"
	case ActError:
		return "error"
	case ActDuplicate:
		return "duplicate"
	case ActPartition:
		return "partition"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// ErrInjected tags every fault the injector manufactures, so tests and
// retry classifiers can tell injected faults from real ones.
var ErrInjected = errors.New("faultpoint: injected fault")

// Error is the transport-level failure an injected drop or partition
// produces. It implements net.Error with Timeout() true for drops, so
// the TCP client's timeout path (close + redial) and the retry
// classifier treat an injected loss exactly like a real one.
type Error struct {
	// Action that produced the failure.
	Action Action
	// Method the failed call targeted.
	Method string
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("faultpoint: injected %s on %s", e.Action, e.Method)
}

// Unwrap lets errors.Is(err, ErrInjected) identify injected faults.
func (e *Error) Unwrap() error { return ErrInjected }

// Timeout implements net.Error: a dropped message is observed as a
// deadline expiry.
func (e *Error) Timeout() bool {
	return e.Action == ActDropRequest || e.Action == ActDropResponse
}

// Temporary implements net.Error (deprecated there, required for the
// interface); injected faults are always transient.
func (e *Error) Temporary() bool { return true }

// RemoteErrMsg is the message carried by injected remote errors, which
// transports surface as their application-level error type.
const RemoteErrMsg = "faultpoint: injected remote error"

// Decision is the injector's verdict for one message.
type Decision struct {
	// Delay to impose before (and in addition to) Action.
	Delay time.Duration
	// Action to take; ActNone delivers normally.
	Action Action
}

// Rule matches a set of methods and gives each fault a probability.
// The zero value matches nothing and injects nothing.
type Rule struct {
	// Method is an exact method name ("acct.deposit-check"), a prefix
	// pattern ("acct.*"), or "*" for every method.
	Method string
	// Drop, Dup, and Err are per-message probabilities in [0, 1]. A
	// triggered drop is split evenly between request and response loss.
	Drop, Dup, Err float64
	// Delay is imposed with probability DelayProb (1 if Delay is set
	// and DelayProb is 0).
	Delay     time.Duration
	DelayProb float64
	// Partition fails every matching message while set.
	Partition bool
}

// matches reports whether the rule applies to method.
func (r Rule) matches(method string) bool {
	if r.Method == "*" {
		return true
	}
	if p, ok := strings.CutSuffix(r.Method, "*"); ok {
		return strings.HasPrefix(method, p)
	}
	return r.Method == method
}

// Injector decides faults for messages. It is safe for concurrent use;
// all randomness flows from the seed given to New, so a serial call
// sequence yields an identical fault sequence on every run.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []Rule
}

// New returns an Injector applying rules (first match wins) with a
// deterministic PRNG seeded by seed.
func New(seed int64, rules ...Rule) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), rules: rules}
}

// Decide returns the fault verdict for one message to method. Dice are
// rolled in a fixed order (delay, partition, drop, error, duplicate)
// so a fixed seed and call sequence reproduce exactly.
func (i *Injector) Decide(method string) Decision {
	if i == nil {
		return Decision{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	var d Decision
	for _, r := range i.rules {
		if !r.matches(method) {
			continue
		}
		if r.Delay > 0 {
			p := r.DelayProb
			if p == 0 {
				p = 1
			}
			if i.rng.Float64() < p {
				d.Delay = r.Delay
			}
		}
		switch {
		case r.Partition:
			d.Action = ActPartition
		case r.Drop > 0 && i.rng.Float64() < r.Drop:
			d.Action = ActDropRequest
			if i.rng.Float64() < 0.5 {
				d.Action = ActDropResponse
			}
		case r.Err > 0 && i.rng.Float64() < r.Err:
			d.Action = ActError
		case r.Dup > 0 && i.rng.Float64() < r.Dup:
			d.Action = ActDuplicate
		}
		break // first matching rule wins
	}
	if d.Action != ActNone {
		mInjections.With(d.Action.String()).Inc()
	}
	if d.Delay > 0 {
		mDelays.Inc()
	}
	return d
}

// Rules returns a copy of the injector's rules, for logging.
func (i *Injector) Rules() []Rule {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]Rule(nil), i.rules...)
}
