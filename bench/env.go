package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envRecord says where and how a result file was produced, so two files
// can be told apart as "different commit" or "different host".
type envRecord struct {
	Commit       string    `json:"commit"`
	GoVersion    string    `json:"go_version"`
	NProc        int       `json:"nproc"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	PinnedCPU    int       `json:"pinned_cpu"` // -1: the kernel refused, the run was unpinned
	Kernel       string    `json:"kernel"`
	Started      time.Time `json:"started"`
	LoadavgStart float64   `json:"loadavg_1m_start"`
	LoadavgEnd   float64   `json:"loadavg_1m_end"`
	CalibMS      float64   `json:"loadgen.calib_ms"`
	Seed         int64     `json:"seed"`
	WindowS      float64   `json:"window_s"`
	WarmupS      float64   `json:"warmup_s"`
	Smoke        bool      `json:"smoke,omitempty"`
	// Noisy marks a run that started on a host already busier than its
	// processors; -compare calls nothing from it within-bound.
	Noisy bool `json:"noisy"`
}

func startEnv(cfg runCfg) envRecord {
	e := envRecord{
		Commit:       commit(),
		GoVersion:    runtime.Version(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		PinnedCPU:    pinnedCPU,
		Kernel:       firstField("/proc/sys/kernel/osrelease"),
		Started:      time.Now().UTC(),
		LoadavgStart: loadavg(),
		CalibMS:      calibMS(),
		Seed:         cfg.seed,
		WindowS:      cfg.seconds,
		WarmupS:      cfg.size.warmup.Seconds(),
		Smoke:        cfg.smoke,
	}
	e.Noisy = e.LoadavgStart > float64(e.NProc)
	return e
}

func (e *envRecord) finish() { e.LoadavgEnd = loadavg() }

// commit is the checked-out commit, or "unknown" where the tree is not a
// git repository (the driver's checkouts are not).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func firstField(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return "unknown"
	}
	return f[0]
}

// loadavg is the 1-minute load average, or 0 where /proc has none.
func loadavg() float64 {
	v, err := strconv.ParseFloat(firstField("/proc/loadavg"), 64)
	if err != nil {
		return 0
	}
	return v
}
