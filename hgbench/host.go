package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"heterogen/internal/benchmeta"
)

// hostRecord is the host-noise record printed with every run. It is not
// gated: it exists so a set of runs that disagrees can be traced to the
// host (steal, load) rather than to the code.
type hostRecord struct {
	Commit  string           `json:"commit"`
	Nproc   int              `json:"nproc"`
	Runner  benchmeta.Runner `json:"runner"`
	StealS  float64          `json:"steal_s"`  // host steal over the run, all CPUs
	LoadAvg []float64        `json:"load_avg"` // 1, 5 and 15 minute load at the end
}

// stealTicks reads the aggregate steal column of /proc/stat (USER_HZ
// ticks); -1 when unreadable.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

func loadAvg() []float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return nil
	}
	var out []float64
	for _, f := range strings.Fields(string(data))[:3] {
		v, _ := strconv.ParseFloat(f, 64)
		out = append(out, v)
	}
	return out
}

// commit is the VCS revision the toolchain stamped into the binary, or
// "unknown" when it was built outside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// hostWatch starts a host record; finish closes it.
type hostWatch struct{ steal0 int64 }

func watchHost() hostWatch { return hostWatch{steal0: stealTicks()} }

func (w hostWatch) finish() hostRecord {
	r := hostRecord{
		Commit:  commit(),
		Nproc:   runtime.NumCPU(),
		Runner:  benchmeta.Collect("every workload runs its computation on one worker"),
		LoadAvg: loadAvg(),
		StealS:  -1,
	}
	if s := stealTicks(); s >= 0 && w.steal0 >= 0 {
		r.StealS = float64(s-w.steal0) / 100 // USER_HZ is 100 on Linux
	}
	return r
}

// cpuTime is the process's user+system CPU time so far (all threads).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
