package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// facts are the machine and run facts printed with every result: a
// number without them cannot be compared with another.
type facts struct {
	cpuModel, governor, goVersion, commit string
	nproc, gomaxprocs                     int
	workload                              string
	seed                                  uint64
	seconds                               int
	trace                                 int
}

func gatherFacts(workload string, seed uint64, seconds, trace int) facts {
	commit := os.Getenv("PCBENCH_COMMIT")
	if commit == "" {
		commit = "unavailable"
	}
	return facts{
		cpuModel:   cpuModel(),
		governor:   governor(),
		goVersion:  runtime.Version(),
		commit:     commit,
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		workload:   workload,
		seed:       seed,
		seconds:    seconds,
		trace:      trace,
	}
}

func (f facts) print(w io.Writer) {
	fmt.Fprintf(w, "fact cpu_model: %s\n", f.cpuModel)
	fmt.Fprintf(w, "fact nproc: %d\n", f.nproc)
	fmt.Fprintf(w, "fact gomaxprocs: %d\n", f.gomaxprocs)
	fmt.Fprintf(w, "fact governor: %s\n", f.governor)
	fmt.Fprintf(w, "fact go_version: %s\n", f.goVersion)
	fmt.Fprintf(w, "fact commit: %s\n", f.commit)
	fmt.Fprintf(w, "fact workload: %s seed %d seconds %d trace %d clients %d\n",
		f.workload, f.seed, f.seconds, f.trace, clients)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	fh, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unavailable"
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unavailable"
}

// governor reads cpu0's frequency governor.
func governor() string {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(b))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
