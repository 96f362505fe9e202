package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// environment is what a reader needs to judge whether two result files
// are comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	// Seconds is the run length asked for: two result files measured for
	// different lengths are not comparable.
	Seconds float64 `json:"seconds"`
}

func (e environment) String() string {
	return fmt.Sprintf("env: nproc=%d gomaxprocs=%d %s cpu=%q commit=%s seed=%d scale=%s seconds=%g",
		e.NProc, e.GoMaxProcs, e.GoVersion, e.CPU, e.Commit, e.Seed, e.Scale, e.Seconds)
}

func readEnvironment(seed int64, scale string, seconds float64) environment {
	return environment{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), Commit: gitCommit(), Seed: seed, Scale: scale, Seconds: seconds,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git in the working
// directory without running git; a checkout that is not a repository
// (or keeps the ref packed) reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(".git/" + name)
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	return ref
}
