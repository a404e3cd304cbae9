package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// envRecord is the run-time environment stored beside every result, so a
// number can be traced back to the machine and commit that produced it.
type envRecord struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOGC       string `json:"gogc"`
	// JournalBacking is where write-ahead journals and spill segments go:
	// a directory under the output directory, because a run may write only
	// inside its checkout. On a disk-backed checkout the journal's fsync
	// is a real one.
	JournalBacking string `json:"journal_backing"`
	Commit         string `json:"commit"`
	Time           string `json:"time"`
}

// collectEnv records the environment once per invocation.
func collectEnv(journalBacking string) envRecord {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return envRecord{
		CPUModel:       cpuModel(),
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		GOGC:           gogc,
		JournalBacking: journalBacking,
		Commit:         commit(),
		Time:           time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary or, for `go run`
// (which stamps none), what git says about the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
