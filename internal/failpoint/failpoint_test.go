package failpoint

import (
	"errors"
	"sync"
	"testing"
)

func TestDisabledIsNil(t *testing.T) {
	defer DisableAll()
	if err := Inject("never/armed"); err != nil {
		t.Fatalf("disarmed Inject = %v", err)
	}
}

func TestEnableDisable(t *testing.T) {
	defer DisableAll()
	EnableError("a/b")
	if err := Inject("a/b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed Inject = %v", err)
	}
	// Other names stay disarmed even while something is armed.
	if err := Inject("a/other"); err != nil {
		t.Fatalf("unarmed name while registry active = %v", err)
	}
	Disable("a/b")
	if err := Inject("a/b"); err != nil {
		t.Fatalf("after Disable = %v", err)
	}
	if armed.Load() != 0 {
		t.Fatalf("armed counter = %d", armed.Load())
	}
}

func TestCustomActionAndPanic(t *testing.T) {
	defer DisableAll()
	calls := 0
	Enable("count/me", func(string) error { calls++; return nil })
	Inject("count/me")
	Inject("count/me")
	if calls != 2 {
		t.Fatalf("action ran %d times", calls)
	}

	EnablePanic("boom")
	defer func() {
		pv, ok := recover().(PanicValue)
		if !ok || pv.Name != "boom" {
			t.Fatalf("recover = %v", pv)
		}
	}()
	Inject("boom")
}

func TestRegisterAndList(t *testing.T) {
	defer DisableAll()
	Register("z/point")
	Register("a/point")
	Register("a/point") // idempotent
	found := map[string]bool{}
	for _, n := range List() {
		found[n] = true
	}
	if !found["z/point"] || !found["a/point"] {
		t.Fatalf("List missing registered points: %v", List())
	}
}

// Enabling/disabling while other goroutines Inject must be race-free
// (exercised under -race in CI).
func TestConcurrentInject(t *testing.T) {
	defer DisableAll()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					Inject("race/point")
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		EnableError("race/point")
		Disable("race/point")
	}
	close(stop)
	wg.Wait()
}

// Double-Enable must not leak the armed counter: the fast path depends on
// it returning to zero.
func TestDoubleEnableCounter(t *testing.T) {
	defer DisableAll()
	EnableError("dup")
	EnableError("dup")
	Disable("dup")
	if armed.Load() != 0 {
		t.Fatalf("armed counter after double enable + disable = %d", armed.Load())
	}
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
