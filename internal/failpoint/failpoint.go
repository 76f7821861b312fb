// Package failpoint is a zero-cost-when-disabled fault-injection registry.
// Production code marks crash-consistency-critical points with
//
//	if err := failpoint.Inject("snapstore/after-temp-write"); err != nil {
//	    return err
//	}
//
// and tests (or the FREEHW_FAILPOINTS environment variable) arm individual
// points to return errors or panic, simulating a process crash at exactly
// that instruction. When nothing is armed — the production steady state —
// Inject is one atomic load and a predictable branch, so the hooks can stay
// compiled into hot paths permanently.
//
// Points self-register at package init via Register, so a recovery suite
// can enumerate every crash site (List) and prove recovery at each one
// instead of hand-maintaining the list in the test.
package failpoint

import (
	"errors"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrInjected is the error returned by an armed failpoint whose action is
// "error" (the default). Callers propagate it like any I/O failure;
// recovery tests match it with errors.Is.
var ErrInjected = errors.New("failpoint: injected fault")

// PanicValue is the value an armed "panic" failpoint panics with, so tests
// can distinguish an injected crash from a genuine bug in a recover().
type PanicValue struct{ Name string }

var (
	// armed counts currently armed failpoints. Inject's fast path is a
	// single load of this counter: zero means no registry lookup, no lock,
	// no map access — the disabled cost.
	armed atomic.Int64

	mu       sync.Mutex
	registry = map[string]struct{}{} // every point that ever registered
	actions  = map[string]func(string) error{}
)

// Register declares a failpoint name without arming it. Inject works on
// unregistered names too; registration exists so List can enumerate every
// crash site for exhaustive kill-and-recover suites. It returns the name,
// letting call sites self-register at package init:
//
//	var fpAfterWrite = failpoint.Register("snapstore/after-temp-write")
func Register(name string) string {
	mu.Lock()
	registry[name] = struct{}{}
	mu.Unlock()
	return name
}

// List returns every registered failpoint name, sorted.
func List() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Enable arms a failpoint with a custom action. The action receives the
// failpoint name; returning a non-nil error makes Inject fail, and the
// action may panic to simulate a harder crash. Enabling an already-armed
// point replaces its action.
func Enable(name string, action func(string) error) {
	mu.Lock()
	if _, dup := actions[name]; !dup {
		armed.Add(1)
	}
	registry[name] = struct{}{}
	actions[name] = action
	mu.Unlock()
}

// EnableError arms a failpoint to return ErrInjected — the way a crash
// manifests to the caller mid-write: the operation stops and nothing after
// the injection point runs.
func EnableError(name string) { Enable(name, func(string) error { return ErrInjected }) }

// EnablePanic arms a failpoint to panic with PanicValue.
func EnablePanic(name string) {
	Enable(name, func(n string) error { panic(PanicValue{Name: n}) })
}

// Disable disarms one failpoint.
func Disable(name string) {
	mu.Lock()
	if _, ok := actions[name]; ok {
		delete(actions, name)
		armed.Add(-1)
	}
	mu.Unlock()
}

// DisableAll disarms every failpoint. Recovery tests defer it so an armed
// point never leaks into the next test.
func DisableAll() {
	mu.Lock()
	for n := range actions {
		delete(actions, n)
	}
	armed.Store(0)
	mu.Unlock()
}

// Inject fires the failpoint: nil when disarmed (the fast path — one
// atomic load), otherwise whatever the armed action does.
func Inject(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	action := actions[name]
	mu.Unlock()
	if action == nil {
		return nil
	}
	return action(name)
}

// init arms failpoints named in FREEHW_FAILPOINTS, a comma-separated list
// of name or name=action entries where action is "error" (default) or
// "panic" — so CI and operators can exercise fault paths in a real binary
// without recompiling:
//
//	FREEHW_FAILPOINTS=snapstore/after-temp-write,snapstore/after-seg-sync=panic
func init() {
	for _, spec := range strings.Split(os.Getenv("FREEHW_FAILPOINTS"), ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, action, _ := strings.Cut(spec, "=")
		if action == "panic" {
			EnablePanic(name)
		} else {
			EnableError(name)
		}
	}
}
