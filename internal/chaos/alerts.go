package chaos

// The alert ledger: every run registers standing subscriptions before
// the first tick, records every alert instance the fog tier fires (the
// core.Options.AlertObserver hook sees each seal at its fire point),
// and after convergence checks two-way set equality between the fired
// ledger and the cloud's archived instances: no fired alert lost across
// partitions, reboots, migrations and retry folding, and no phantom or
// duplicate instance invented by at-least-once redelivery.

import (
	"sync"
	"time"

	"f2c/internal/cq"
	"f2c/internal/protocol"
)

// alertSubs are the standing continuous queries: a tumbling and a
// sliding window over traffic, and a threshold that trips in every
// noise window (every workload value is positive), so pushes are
// always in flight when a fault lands.
func alertSubs(tickStep time.Duration) []cq.Subscription {
	w := 4 * tickStep
	return []cq.Subscription{
		{ID: "chaos-traffic-window", TypeName: "traffic", Kind: cq.KindWindow, Window: w},
		{ID: "chaos-traffic-sliding", TypeName: "traffic", Kind: cq.KindWindow, Window: 2 * w, Slide: w},
		{ID: "chaos-noise-threshold", TypeName: "noise_level", Kind: cq.KindThreshold, Window: w, Predicate: cq.PredAbove, Threshold: 0},
	}
}

// alertLedger collects the instance key of every alert the fog tier
// seals. Keys, not counts: a crash between a window's fire and its
// journaled seal legitimately refires the same instance after reboot,
// and the cloud's instance dedup absorbs the copy.
type alertLedger struct {
	mu    sync.Mutex
	fired map[string]bool
}

// observe is the core.Options.AlertObserver hook.
func (l *alertLedger) observe(push protocol.AlertPush) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fired == nil {
		l.fired = make(map[string]bool)
	}
	for i := range push.Alerts {
		l.fired[push.Alerts[i].Key()] = true
	}
}

// subscribe installs the standing subscriptions before the first tick,
// as a deployment seeds them at boot.
func (r *run) subscribe() error {
	for _, sub := range alertSubs(tickStep) {
		if err := r.sys.Subscribe(sub); err != nil {
			return r.failf("subscribe %s: %v", sub.ID, err)
		}
	}
	return nil
}

// checkAlerts fills the alert fields of the Result and checks that the
// fired set equals the cloud's archived set.
func (r *run) checkAlerts() error {
	r.alerts.mu.Lock()
	defer r.alerts.mu.Unlock()
	fired := r.alerts.fired
	instances := r.sys.Cloud().AlertInstances()
	r.res.AlertsFired = len(fired)
	r.res.AlertsDelivered = len(instances)
	r.res.AlertDuplicates = r.sys.Cloud().DuplicateAlerts()
	if len(fired) == 0 {
		return r.failf("the standing subscriptions fired nothing")
	}
	delivered := make(map[string]bool, len(instances))
	for i := range instances {
		k := instances[i].Key()
		if !fired[k] {
			return r.failf("phantom alert: cloud archived instance %s no subscription fired", k)
		}
		delivered[k] = true
	}
	for k := range fired {
		if !delivered[k] {
			return r.failf("lost alert: fired instance %s never reached the cloud", k)
		}
	}
	return nil
}
